package tensor

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// wireTensor is the gob wire representation of a Tensor.
type wireTensor struct {
	Shape []int
	Data  []float64
}

// GobEncode implements gob.GobEncoder so tensors can cross the federated
// learning transport.
func (t *Tensor) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wireTensor{Shape: t.shape, Data: t.data}); err != nil {
		return nil, fmt.Errorf("tensor: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (t *Tensor) GobDecode(p []byte) error {
	var w wireTensor
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&w); err != nil {
		return fmt.Errorf("tensor: gob decode: %w", err)
	}
	n := 1
	for _, d := range w.Shape {
		// A peer-supplied shape must not overflow the element count: a
		// product that wraps could otherwise match a short data slice.
		if d <= 0 || d > math.MaxInt/n {
			return fmt.Errorf("tensor: gob decode: invalid shape %v", w.Shape)
		}
		n *= d
	}
	if len(w.Shape) == 0 || n != len(w.Data) {
		return fmt.Errorf("tensor: gob decode: shape %v does not match %d elements", w.Shape, len(w.Data))
	}
	t.shape = w.Shape
	t.data = w.Data
	return nil
}
