package register

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestBitWidth(t *testing.T) {
	tests := []struct {
		w    uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{63, 6},
		{64, 7},
		{1 << 62, 63},
		{^uint64(0), 64},
	}
	for _, tc := range tests {
		if got := BitWidth(tc.w); got != tc.want {
			t.Errorf("BitWidth(%d) = %d, want %d", tc.w, got, tc.want)
		}
	}
}

func TestBitWidthMonotone(t *testing.T) {
	f := func(a, b uint64) bool {
		if a > b {
			a, b = b, a
		}
		return BitWidth(a) <= BitWidth(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFits(t *testing.T) {
	tests := []struct {
		name  string
		v     Value
		width int
		want  bool
	}{
		{"unbounded accepts anything", []int{1, 2}, 0, true},
		{"unbounded accepts nil", nil, 0, true},
		{"one bit accepts 0", uint64(0), 1, true},
		{"one bit accepts 1", uint64(1), 1, true},
		{"one bit rejects 2", uint64(2), 1, false},
		{"three bits accept 7", uint64(7), 3, true},
		{"three bits reject 8", uint64(8), 3, false},
		{"bounded rejects non-word", "hello", 8, false},
		{"bounded rejects int", int(1), 8, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Fits(tc.v, tc.width); got != tc.want {
				t.Errorf("Fits(%v, %d) = %v, want %v", tc.v, tc.width, got, tc.want)
			}
		})
	}
}

func TestFitsExactBoundary(t *testing.T) {
	// A register of s bits stores exactly the values 0..2^s-1.
	f := func(s uint8) bool {
		width := int(s%63) + 1
		limit := uint64(1) << width
		return Fits(limit-1, width) && !Fits(limit, width)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSWMRWriteRead(t *testing.T) {
	r := NewSWMR(2, uint64(0))
	if got := r.Read(); got != uint64(0) {
		t.Fatalf("initial Read = %v, want 0", got)
	}
	if err := r.Write(uint64(3)); err != nil {
		t.Fatalf("Write(3): %v", err)
	}
	if got := r.Read(); got != uint64(3) {
		t.Fatalf("Read = %v, want 3", got)
	}
	if r.Writes() != 1 {
		t.Fatalf("Writes = %d, want 1", r.Writes())
	}
}

func TestSWMRWidthViolation(t *testing.T) {
	r := NewSWMR(1, uint64(0))
	if err := r.Write(uint64(2)); !errors.Is(err, ErrTooWide) {
		t.Fatalf("Write(2) err = %v, want ErrTooWide", err)
	}
	// Register unchanged after rejected write.
	if got := r.Read(); got != uint64(0) {
		t.Fatalf("Read after rejected write = %v, want 0", got)
	}
	if r.Writes() != 0 {
		t.Fatalf("Writes after rejected write = %d, want 0", r.Writes())
	}
}

func TestSWMRUnbounded(t *testing.T) {
	r := NewSWMR(0, nil)
	type view struct{ a, b int }
	if err := r.Write(view{1, 2}); err != nil {
		t.Fatalf("unbounded Write: %v", err)
	}
	if got := r.Read(); got != (view{1, 2}) {
		t.Fatalf("Read = %v", got)
	}
}

func TestSWMRWriteErasesPrevious(t *testing.T) {
	// §2: "the content of the register is erased and replaced".
	r := NewSWMR(4, uint64(0))
	for v := uint64(0); v < 16; v++ {
		if err := r.Write(v); err != nil {
			t.Fatalf("Write(%d): %v", v, err)
		}
		if got := r.Read(); got != v {
			t.Fatalf("Read = %v, want %d", got, v)
		}
	}
}

func TestWriteOnce(t *testing.T) {
	r := NewWriteOnce()
	if r.Read() != nil {
		t.Fatal("initial input register not ⊥")
	}
	if r.Written() {
		t.Fatal("Written before any write")
	}
	if err := r.Write("input-x"); err != nil {
		t.Fatalf("first Write: %v", err)
	}
	if got := r.Read(); got != "input-x" {
		t.Fatalf("Read = %v", got)
	}
	if !r.Written() {
		t.Fatal("Written false after write")
	}
	if err := r.Write("other"); !errors.Is(err, ErrAlreadyWritten) {
		t.Fatalf("second Write err = %v, want ErrAlreadyWritten", err)
	}
	if got := r.Read(); got != "input-x" {
		t.Fatalf("Read after rejected rewrite = %v", got)
	}
}

func TestReset(t *testing.T) {
	r := NewSWMR(2, uint64(1))
	if err := r.Write(uint64(3)); err != nil {
		t.Fatal(err)
	}
	r.Reset()
	if got := r.Read(); got != uint64(1) || r.Writes() != 0 {
		t.Fatalf("after Reset: Read = %v, Writes = %d; want 1, 0", got, r.Writes())
	}
	in := NewWriteOnce()
	if err := in.Write("x"); err != nil {
		t.Fatal(err)
	}
	in.Reset()
	if in.Read() != nil || in.Written() {
		t.Fatalf("after Reset: Read = %v, Written = %v; want ⊥, false", in.Read(), in.Written())
	}
	if err := in.Write("y"); err != nil {
		t.Fatalf("Write after Reset: %v", err)
	}
}
