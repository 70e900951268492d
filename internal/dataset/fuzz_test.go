package dataset

import (
	"bytes"
	"testing"

	"repro/internal/april"
	"repro/internal/datagen"
)

// FuzzRead checks the binary dataset reader never panics on corrupted
// input — truncations, bit flips, adversarial headers and blob lengths
// all must surface as errors. The checked-in corpus still holds
// retired version-1 files: they must keep failing cleanly.
func FuzzRead(f *testing.F) {
	suite := datagen.NewSuite(3, 0.01)
	b := april.NewBuilder(suite.Space, 9)
	ds, err := Precompute("OLE", "EU Lakes", suite.Sets["OLE"][:3], b)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte{})
	corrupted := append([]byte(nil), valid...)
	corrupted[10] ^= 0xff
	f.Add(corrupted)
	// First object's geometry blob length blown past the cap, and its
	// ring count zeroed (the blob framing is intact, the polygon is not).
	hdr := headerLen(ds)
	f.Add(append(append([]byte(nil), valid[:hdr]...), 0xff, 0xff, 0xff, 0x7f))
	noRings := append([]byte(nil), valid...)
	copy(noRings[hdr+4:], []byte{0, 0, 0, 0})
	f.Add(noRings)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must be internally consistent.
		if got.Len() != len(got.Objects) {
			t.Fatal("inconsistent length")
		}
		for _, o := range got.Objects {
			if o.Poly == nil || len(o.Poly.Shell) == 0 {
				t.Fatal("accepted object without geometry")
			}
			_ = o.MBR
		}
	})
}
