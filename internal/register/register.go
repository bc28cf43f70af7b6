// Package register models the single-writer/multi-reader (SWMR) registers
// of the asynchronous shared-memory model studied in the paper, including
// bounded-size registers (the paper's central object) and the special
// write-once input registers used by the constant-size constructions.
//
// A register value is any Go value for unbounded registers. Bounded
// registers restrict values to uint64 words whose bit-width fits the
// configured budget: a register of s bits stores exactly the values
// 0 .. 2^s-1.
package register

import (
	"errors"
	"fmt"
	"math/bits"
)

// Value is the content of a register. Unbounded registers accept any value;
// bounded registers accept only uint64 words within their width.
type Value = any

// ErrTooWide is returned when a write exceeds a bounded register's width.
var ErrTooWide = errors.New("register: value exceeds register width")

// ErrAlreadyWritten is returned when a write-once register is written twice.
var ErrAlreadyWritten = errors.New("register: write-once register already written")

// BitWidth returns the minimal number of bits needed to represent w.
// BitWidth(0) == 0, so 0 fits in a register of any width.
func BitWidth(w uint64) int {
	return bits.Len64(w)
}

// Fits reports whether value v fits in a register of the given width.
// width == 0 means unbounded (everything fits). For bounded registers, only
// uint64 values of bit-width at most width fit; any other Go type is
// considered too wide (it has no bounded encoding).
func Fits(v Value, width int) bool {
	if width <= 0 {
		return true
	}
	w, ok := v.(uint64)
	if !ok {
		return false
	}
	return BitWidth(w) <= width
}

// SWMR is a single-writer/multi-reader atomic register. Atomicity is not
// enforced here: the scheduler runtime (package sched) guarantees that
// only one process takes a step at a time, so plain field access is atomic
// in the model's sense.
type SWMR struct {
	width   int // bits; 0 = unbounded
	initial Value
	val     Value
	writes  int
}

// NewSWMR returns a register of the given width in bits (0 = unbounded),
// initialized to initial. Registers in the paper are initialized to 0
// (bounded coordination registers) or ⊥/nil (input registers, views).
func NewSWMR(width int, initial Value) *SWMR {
	return &SWMR{width: width, initial: initial, val: initial}
}

// Reset puts the register back to the content it was built with and
// zeroes its write count.
func (r *SWMR) Reset() { r.val, r.writes = r.initial, 0 }

// Width returns the register width in bits (0 = unbounded).
func (r *SWMR) Width() int { return r.width }

// Write replaces the register content with v. It returns ErrTooWide if v
// does not fit the register's width; the register is left unchanged in
// that case, and the caller (a protocol under test) has violated the
// bounded-register model.
func (r *SWMR) Write(v Value) error {
	if !Fits(v, r.width) {
		return fmt.Errorf("%w: %v in %d bits", ErrTooWide, v, r.width)
	}
	r.val = v
	r.writes++
	return nil
}

// Read returns the current register content.
func (r *SWMR) Read() Value { return r.val }

// Writes returns how many successful writes this register has received.
func (r *SWMR) Writes() int { return r.writes }

// WriteOnce is the special input register I_i of the paper (§2 "Size of the
// Registers"): process i writes its input once; the register can be read
// at will but never rewritten, and carries no width restriction. Its
// initial content is ⊥, represented as nil.
type WriteOnce struct {
	val     Value
	written bool
}

// NewWriteOnce returns an unwritten input register (content ⊥ / nil).
func NewWriteOnce() *WriteOnce { return &WriteOnce{} }

// Write stores the input value. A second write returns ErrAlreadyWritten.
func (r *WriteOnce) Write(v Value) error {
	if r.written {
		return ErrAlreadyWritten
	}
	r.val = v
	r.written = true
	return nil
}

// Read returns the stored input, or nil (⊥) if not yet written.
func (r *WriteOnce) Read() Value { return r.val }

// Written reports whether the register has been written.
func (r *WriteOnce) Written() bool { return r.written }

// Reset makes the register unwritten again, with content ⊥.
func (r *WriteOnce) Reset() { r.val, r.written = nil, false }
