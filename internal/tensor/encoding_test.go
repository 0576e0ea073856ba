package tensor

import (
	"bytes"
	"encoding/gob"
	"math"
	rand "math/rand/v2"
	"testing"
)

func TestGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	orig := New(3, 4, 5)
	orig.FillRandn(rng, 1)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(orig); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back Tensor
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !orig.EqualApprox(&back, 0) {
		t.Error("gob round trip lost data")
	}
	if back.Dims() != 3 || back.Dim(2) != 5 {
		t.Errorf("gob round trip lost shape: %v", back.Shape())
	}
}

func TestGobDecodeRejectsCorruptShape(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wireTensor{Shape: []int{2, 2}, Data: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	var back Tensor
	if err := back.GobDecode(buf.Bytes()); err == nil {
		t.Error("decode of inconsistent shape/data succeeded")
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(wireTensor{Shape: []int{-1}, Data: nil}); err != nil {
		t.Fatal(err)
	}
	if err := back.GobDecode(buf.Bytes()); err == nil {
		t.Error("decode of negative dimension succeeded")
	}
}

// TestGobDecodeRejectsOverflowingShape pins the overflow check on the
// element count: a peer-supplied shape whose product wraps around int must
// be rejected, never matched against a (possibly empty) data slice.
func TestGobDecodeRejectsOverflowingShape(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape []int
		data  []float64
	}{
		{"wraps to zero", []int{1 << 32, 1 << 32}, nil},
		{"wraps to zero in three dims", []int{1 << 31, 1 << 31, 4}, nil},
		{"wraps to one element", []int{math.MaxInt, math.MaxInt}, []float64{0}}, // (2⁶³−1)² ≡ 1 mod 2⁶⁴
		{"max int doubled", []int{math.MaxInt, 2}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(wireTensor{Shape: tc.shape, Data: tc.data}); err != nil {
				t.Fatal(err)
			}
			var back Tensor
			if err := back.GobDecode(buf.Bytes()); err == nil {
				t.Errorf("decode of shape %v with %d elements succeeded", tc.shape, len(tc.data))
			}
		})
	}
}

func TestGobInsideSlice(t *testing.T) {
	// The FL transport ships []*Tensor payloads; make sure pointers inside
	// composite values round-trip.
	rng := rand.New(rand.NewPCG(9, 9))
	in := []*Tensor{New(2, 2), New(3)}
	in[0].FillRandn(rng, 1)
	in[1].FillRandn(rng, 1)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out []*Tensor
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !out[0].EqualApprox(in[0], 0) || !out[1].EqualApprox(in[1], 0) {
		t.Error("slice-of-tensor round trip failed")
	}
}
