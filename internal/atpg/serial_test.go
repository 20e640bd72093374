package atpg

import (
	"testing"

	"cghti/internal/artifact"
)

// TestDecodeCubeRejectsStrayBits: a care bit past the position count
// would send ForEachCare past every per-position table sized by Len,
// and a position set to both values is no cube at all.
func TestDecodeCubeRejectsStrayBits(t *testing.T) {
	for _, tc := range []struct {
		name        string
		n           int
		ones, zeros uint64
	}{
		{"past-width", 3, 1 << 5, 0},
		{"both-values", 3, 1 << 1, 1 << 1},
	} {
		e := artifact.NewEnc()
		e.Int(tc.n)
		e.Words([]uint64{tc.ones})
		e.Words([]uint64{tc.zeros})
		if c, err := DecodeCube(artifact.NewDec(e.Finish())); err == nil {
			t.Errorf("%s: decoded %s without error", tc.name, c)
		}
	}
}
