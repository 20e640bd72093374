package atpg

import (
	"fmt"

	"cghti/internal/artifact"
)

// EncodeCube appends c's canonical binary form to e: the position count
// followed by the ones/zeros bitset words. Part of the artifact-store
// serialization of compatibility graphs and cliques.
func EncodeCube(e *artifact.Enc, c Cube) {
	e.Int(c.n)
	e.Words(c.ones)
	e.Words(c.zeros)
}

// DecodeCube reads a cube written by EncodeCube, validating that the
// bitset widths match the position count, that no care bit lies past
// it, and that no position is both 0 and 1, so a corrupted encoding
// cannot produce a cube whose accessors index out of range.
func DecodeCube(d *artifact.Dec) (Cube, error) {
	n := d.Int()
	ones := d.Words()
	zeros := d.Words()
	if err := d.Err(); err != nil {
		return Cube{}, err
	}
	w := (n + 63) / 64
	if n < 0 || len(ones) != w || len(zeros) != w {
		return Cube{}, fmt.Errorf("atpg: cube encoding inconsistent: n=%d, %d/%d words", n, len(ones), len(zeros))
	}
	for k := range ones {
		if ones[k]&zeros[k] != 0 {
			return Cube{}, fmt.Errorf("atpg: cube encoding sets a position to both 0 and 1")
		}
	}
	if r := n % 64; r != 0 && (ones[w-1]|zeros[w-1])>>uint(r) != 0 {
		return Cube{}, fmt.Errorf("atpg: cube encoding has a care bit past its %d positions", n)
	}
	return Cube{ones: ones, zeros: zeros, n: n}, nil
}
