package main

import (
	"math"
	"testing"

	"segdiff"
)

func match4(td, tc, tb, ta int64) segdiff.Match {
	return segdiff.Match{From: segdiff.Interval{Start: td, End: tc}, To: segdiff.Interval{Start: tb, End: ta}}
}

func TestBetween(t *testing.T) {
	final := []segdiff.SensorMatches{{Sensor: "s00", Matches: []segdiff.Match{
		match4(0, 10, 10, 20), match4(0, 10, 20, 30), match4(10, 20, 20, 30), match4(20, 30, 30, 40),
	}}}
	wire := func(ms ...segdiff.Match) []segdiff.SensorMatches {
		return []segdiff.SensorMatches{{Sensor: "s00", Matches: ms}}
	}
	inf := int64(math.MaxInt64)

	// Quiescent store: the response is the final answer cut at the
	// newest point it had seen, in any order among ties.
	if err := between(wire(match4(0, 10, 20, 30), match4(0, 10, 10, 20), match4(10, 20, 20, 30)), final, 40, 40); err != nil {
		t.Errorf("equal up to the cut: %v", err)
	}
	if err := between(wire(match4(0, 10, 10, 20)), final, 40, 40); err == nil {
		t.Errorf("a response lacking a match the store had must fail")
	}
	if err := between(wire(match4(0, 10, 10, 20), match4(0, 10, 20, 30), match4(10, 20, 20, 30), match4(5, 6, 7, 8)), final, 40, 40); err == nil {
		t.Errorf("a response holding a match the store lacks must fail")
	}
	// Concurrent writer: anything between the two cuts is acceptable.
	if err := between(wire(match4(0, 10, 10, 20), match4(0, 10, 20, 30), match4(10, 20, 20, 30)), final, 25, inf); err != nil {
		t.Errorf("between the cuts: %v", err)
	}
	if err := between(wire(match4(0, 10, 10, 20)), final, 25, inf); err != nil {
		t.Errorf("only matches ending before the low cut are required: %v", err)
	}
	if err := between(wire(), final, 25, inf); err == nil {
		t.Errorf("a match ending before the low cut is required")
	}
	if err := between([]segdiff.SensorMatches{{Sensor: "other"}}, final, inf, inf); err == nil {
		t.Errorf("a different sensor list must fail")
	}
}
