package tensor

import (
	"bytes"
	"encoding/gob"
	"math"
	rand "math/rand/v2"
	"runtime"
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

// FuzzTensorGobDecode hardens the tensor wire decoder, which every FL update
// and dispatched model goes through: whatever bytes a peer sends, GobDecode
// must return an error or a consistent tensor, never panic, and allocate in
// proportion to the input rather than to the shape it claims. A decoded
// tensor must re-encode and decode to the same bits. The seed corpus in
// testdata/fuzz holds a valid tensor, NaN/±0/±Inf values, and the
// overflowing shapes of TestGobDecodeRejectsOverflowingShape.
func FuzzTensorGobDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var x Tensor
		err := x.GobDecode(p)
		runtime.ReadMemStats(&after)
		// gob caps a slice's up-front allocation at 10 MB whatever length
		// it claims, and each further element costs at least one input byte.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32<<20+64*len(p)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(p), grew, limit)
		}
		if err != nil {
			return
		}
		n := 1
		for _, d := range x.Shape() {
			if d <= 0 || d > math.MaxInt/n {
				t.Fatalf("decoded shape %v has a non-positive dimension or overflows int", x.Shape())
			}
			n *= d
		}
		if x.Dims() == 0 || n != x.Len() {
			t.Fatalf("decoded shape %v with %d elements", x.Shape(), x.Len())
		}
		again, err := x.GobEncode()
		if err != nil {
			t.Fatalf("decoded tensor does not re-encode: %v", err)
		}
		var y Tensor
		if err := y.GobDecode(again); err != nil {
			t.Fatalf("re-encoded tensor does not decode: %v", err)
		}
		if !x.SameShape(&y) {
			t.Fatalf("round trip changed shape %v to %v", x.Shape(), y.Shape())
		}
		for i, v := range x.Data() {
			if math.Float64bits(v) != math.Float64bits(y.Data()[i]) {
				t.Fatalf("round trip changed element %d from %v to %v", i, v, y.Data()[i])
			}
		}
	})
}
