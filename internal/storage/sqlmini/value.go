// Package sqlmini is a small embedded relational engine: the substrate
// standing in for the MySQL instance of the paper's experiments. It
// supports exactly the surface SegDiff needs —
//
//	CREATE TABLE t (col INT|REAL|TEXT, ...)
//	CREATE INDEX i ON t (col, ...)
//	INSERT INTO t VALUES (?, ...)
//	SELECT expr, ... FROM t [WHERE expr] [ORDER BY col [ASC|DESC], ...] [LIMIT n]
//	SELECT COUNT(*)|MIN|MAX|SUM|AVG(expr), ... FROM t [WHERE expr]
//	DELETE FROM t [WHERE expr]
//	EXPLAIN SELECT ...
//
// — on top of the heap/btree/pager/wal substrates: slotted-page heap
// tables, composite-key B+tree indexes chosen by a planner that turns
// WHERE prefixes into index range scans, buffer-pool caching with an
// explicit cold-cache hook, and batch-commit write-ahead logging with
// crash recovery.
package sqlmini

import (
	"fmt"
	"math"
	"strconv"
)

// ColType is a column type.
type ColType int8

// Column types.
const (
	IntType ColType = iota
	RealType
	TextType
)

func (t ColType) String() string {
	switch t {
	case IntType:
		return "INT"
	case RealType:
		return "REAL"
	case TextType:
		return "TEXT"
	default:
		return fmt.Sprintf("ColType(%d)", int8(t))
	}
}

// Value is a runtime SQL value. Exactly one of the fields selected by T is
// meaningful. There is no NULL: the engine's schemas are all NOT NULL.
type Value struct {
	T ColType
	I int64
	R float64
	S string
}

// Int, Real and Text construct values.
func Int(v int64) Value    { return Value{T: IntType, I: v} }
func Real(v float64) Value { return Value{T: RealType, R: v} }
func Text(v string) Value  { return Value{T: TextType, S: v} }
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// IsTrue interprets the value as a boolean (SQL-ish: nonzero numeric).
func (v Value) IsTrue() bool {
	switch v.T {
	case IntType:
		return v.I != 0
	case RealType:
		return v.R != 0
	default:
		return v.S != ""
	}
}

// AsReal converts a numeric value to float64.
func (v Value) AsReal() (float64, error) {
	switch v.T {
	case IntType:
		return float64(v.I), nil
	case RealType:
		return v.R, nil
	default:
		return 0, fmt.Errorf("sqlmini: TEXT value %q used as number", v.S)
	}
}

func (v Value) String() string {
	switch v.T {
	case IntType:
		return strconv.FormatInt(v.I, 10)
	case RealType:
		return strconv.FormatFloat(v.R, 'g', -1, 64)
	default:
		return v.S
	}
}

// Compare orders two values: numerics compare numerically (INT and REAL
// mix), TEXT compares lexicographically. Comparing TEXT with a numeric is
// an error.
func Compare(a, b Value) (int, error) {
	if a.T == TextType || b.T == TextType {
		if a.T != TextType || b.T != TextType {
			return 0, fmt.Errorf("sqlmini: cannot compare %v with %v", a.T, b.T)
		}
		switch {
		case a.S < b.S:
			return -1, nil
		case a.S > b.S:
			return 1, nil
		}
		return 0, nil
	}
	if a.T == IntType && b.T == IntType {
		switch {
		case a.I < b.I:
			return -1, nil
		case a.I > b.I:
			return 1, nil
		}
		return 0, nil
	}
	af, _ := a.AsReal()
	bf, _ := b.AsReal()
	switch {
	case af < bf:
		return -1, nil
	case af > bf:
		return 1, nil
	}
	return 0, nil
}

// coerce converts v for storage into a column of type t.
func coerce(v Value, t ColType) (Value, error) {
	if v.T == t {
		return v, nil
	}
	switch {
	case t == RealType && v.T == IntType:
		return Real(float64(v.I)), nil
	case t == IntType && v.T == RealType:
		if v.R != math.Trunc(v.R) || math.IsInf(v.R, 0) || math.IsNaN(v.R) {
			return Value{}, fmt.Errorf("sqlmini: non-integral value %v for INT column", v.R)
		}
		return Int(int64(v.R)), nil
	default:
		return Value{}, fmt.Errorf("sqlmini: cannot store %v into %v column", v.T, t)
	}
}
