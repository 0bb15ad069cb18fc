package lefdef

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vm1place/internal/cells"
	"vm1place/internal/tech"
)

// FuzzParseDEF feeds arbitrary text to ParseDEF. It must never panic,
// every error it returns must wrap ErrBadDEF, and every placement it
// accepts must be legal and survive WriteDEF → ParseDEF
// unchanged: writing the reparsed placement reproduces the first write
// byte for byte.
func FuzzParseDEF(f *testing.F) {
	tc := tech.Default()
	lib, p := buildPlaced(f, tc, tech.ClosedM1, 30)
	var seed bytes.Buffer
	if err := WriteDEF(&seed, p); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(invDEF([2]int64{0, 0}, [2]int64{500, 250}))
	f.Add(invDEF([2]int64{-5000, -2500}))
	f.Add(invDEF([2]int64{5000, 250}))
	f.Add(invDEF([2]int64{200, 0}, [2]int64{200, 0}))
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseDEF(strings.NewReader(src), tc, lib)
		if err != nil {
			if !errors.Is(err, ErrBadDEF) {
				t.Fatalf("error %v does not wrap ErrBadDEF", err)
			}
			return
		}
		if err := p.CheckLegal(); err != nil {
			t.Fatalf("accepted an illegal placement: %v", err)
		}
		var first bytes.Buffer
		if err := WriteDEF(&first, p); err != nil {
			t.Fatal(err)
		}
		q, err := ParseDEF(bytes.NewReader(first.Bytes()), tc, lib)
		if err != nil {
			t.Fatalf("written DEF does not parse: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := WriteDEF(&second, q); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteDEF → ParseDEF is not a fixed point:\n%s\n---\n%s", first.String(), second.String())
		}
	})
}

// FuzzParseLEF feeds arbitrary text to ParseLEF, which must never panic,
// and every error it returns must wrap ErrBadLEF.
// Its seed is a one-macro library: every LEF statement the writer emits,
// at a small fraction of a whole library's cost per exec.
func FuzzParseLEF(f *testing.F) {
	tc := tech.Default()
	lib, err := cells.NewLibraryFromMasters(tc, tech.ClosedM1, cells.MustNewLibrary(tc, tech.ClosedM1).Masters[:1])
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := WriteLEF(&seed, lib); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("MACRO X\n PIN A\n DIRECTION INPUT ;\n PORT\n LAYER M9 ;\n RECT 0 0 1 1 ;\n END\n END A\nEND X\n")
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := ParseLEF(strings.NewReader(src), tc); err != nil && !errors.Is(err, ErrBadLEF) {
			t.Fatalf("error %v does not wrap ErrBadLEF", err)
		}
	})
}
