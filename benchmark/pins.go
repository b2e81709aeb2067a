package main

// pin is the default-seed fingerprint of one workload's inputs and
// outputs. A run on the default seed and length aborts when it sees
// anything else, so an edit to internal/synth or internal/smooth (or a
// search that starts returning other rows) cannot silently change what
// the benchmark measures.
type pin struct {
	corpusSHA256 string
	// rowsMeasured is the number of matches the measured query pass
	// returned; 0 on mixed, where the reader's progress decides it.
	rowsMeasured int
	// rowsSampled is the number of matches the drained store returns for
	// the sampled queries.
	rowsSampled int
}

const defaultSeed = 1

// pins were recorded on linux/amd64 at -seed 1 -seconds 15. They are
// enforced on amd64 only: architectures that fuse multiply-adds round
// synth's and smooth's arithmetic differently.
const pinnedArch = "amd64"

var pins = map[string]pin{
	"query-wide":    {"7562d14bb9fc8e1b549b2a22b95909584dfddc05466b9d4f6f71b014c4b8b6dc", 2702041, 192802},
	"query-deep":    {"eac860c7350ee122b9a6862e5fb4f7ee97a57c891057a23857ea5a7d330644b7", 2218382, 182521},
	"ingest-stream": {"6e8e236de4d29ddd69ab8b9cfe035d79603fb9d27b45fdbfe09b8120bb342bc6", 1869706, 152229},
	"mixed":         {"b8ce77d4cfad9bd67f54894724b9708c8384c8b57ff4323a044c01dec0a4f8cd", 0, 190414},
}
