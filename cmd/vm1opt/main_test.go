package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"vm1place/internal/core"
	"vm1place/internal/expt"
	"vm1place/internal/tech"
)

func TestParseArch(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want tech.Arch
		ok   bool
	}{
		{"closedm1", tech.ClosedM1, true},
		{"openm1", tech.OpenM1, true},
		{"OpenM1", 0, false},
		{"ClosedM1", 0, false},
		{"open-m1", 0, false},
		{"conventional", 0, false},
		{"openm1 ", 0, false},
		{"", 0, false},
	} {
		got, err := parseArch(tc.in)
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "closedm1|openm1") {
				t.Errorf("parseArch(%q) = %v, %v; want an error naming closedm1|openm1",
					tc.in, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseArch(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestParseSeq(t *testing.T) {
	ps := func(bwUm float64, lx, ly int) core.ParamSet {
		return core.ParamSet{BW: expt.UmToDBU(bwUm), BH: expt.UmToDBU(bwUm), LX: lx, LY: ly}
	}
	good := []struct {
		in   string
		want core.Sequence
	}{
		{"20:4:1", core.Sequence{ps(20, 4, 1)}},
		{"10:3:1,20:4:0", core.Sequence{ps(10, 3, 1), ps(20, 4, 0)}},
		{" 10:3:1 , 20:4:0 ", core.Sequence{ps(10, 3, 1), ps(20, 4, 0)}},
		{"2.5:0:0", core.Sequence{ps(2.5, 0, 0)}},
	}
	for _, tc := range good {
		if got, err := parseSeq(tc.in); err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("parseSeq(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{
		"", "garbage", "20:4", "20:4:1:0", "20:4:1,", ",20:4:1",
		"x:4:1", "20:a:1", "20:4:b", "20:4.5:1",
		"0:4:1", "-10:3:1", "NaN:3:1", "Inf:3:1", "20:-1:0", "20:4:-1",
	} {
		if got, err := parseSeq(in); err == nil {
			t.Errorf("parseSeq(%q) = %v, want an error", in, got)
		} else if !strings.Contains(err.Error(), "bad sequence element") {
			t.Errorf("parseSeq(%q): error %q does not name the bad element", in, err)
		}
	}
}

func TestSpecFor(t *testing.T) {
	aes, err := specFor("aes", 0, 1)
	if err != nil || aes.NumInsts != 12345 {
		t.Fatalf("specFor(aes, 0, 1) = %+v, %v; want the paper's 12345 instances", aes, err)
	}
	for _, tc := range []struct {
		n     int
		scale float64
		want  int
	}{
		{500, 1, 500},
		{500, 0.5, 500},
		{0, 0.5, aes.NumInsts / 2},
		{0, 1e-9, expt.MinScaledInsts},
	} {
		got, err := specFor("aes", tc.n, tc.scale)
		if err != nil || got.Name != "aes" || got.NumInsts != tc.want {
			t.Errorf("specFor(aes, %d, %v) = %+v, %v; want %d instances",
				tc.n, tc.scale, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		n     int
		scale float64
		flag  string
	}{
		{-5, 1, "-n"},
		{-1, 0.5, "-n"},
		{0, 0, "-scale"},
		{0, -0.5, "-scale"},
		{100, 0, "-scale"},
		{0, math.NaN(), "-scale"},
		{0, math.Inf(1), "-scale"},
		{0, math.Inf(-1), "-scale"},
	} {
		got, err := specFor("aes", tc.n, tc.scale)
		if err == nil {
			t.Errorf("specFor(aes, %d, %v) = %+v, want an error", tc.n, tc.scale, got)
		} else if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("specFor(aes, %d, %v): error %q does not name %s", tc.n, tc.scale, err, tc.flag)
		}
	}
	if _, err := specFor("nope", 0, 1); err == nil {
		t.Error("specFor(nope) succeeded, want an unknown-design error")
	}
}

func TestCheckObjectiveFlags(t *testing.T) {
	for _, tc := range []struct {
		obj    string
		weight float64
		margin int64
		flag   string // "" when the flags must be accepted
	}{
		{"", 0, 0, ""},
		{"closedm1", 0, 0, ""},
		{"slackalpha", 0, 0, ""},
		{"slackalpha", 2, 0, ""},
		{"netsep", 0, 0, ""},
		{"netsep", 0, 300, ""},
		{"", 2, 0, "-slack-weight"},
		{"closedm1", 2, 0, "-slack-weight"},
		{"netsep", 0.5, 300, "-slack-weight"},
		{"slackalpha", -1, 0, "-slack-weight"},
		{"slackalpha", math.NaN(), 0, "-slack-weight"},
		{"slackalpha", math.Inf(1), 0, "-slack-weight"},
		{"slackalpha", math.Inf(-1), 0, "-slack-weight"},
		{"", 0, 300, "-margin"},
		{"openm1", 0, 300, "-margin"},
		{"slackalpha", 2, 300, "-margin"},
		{"netsep", 0, -5, "-margin"},
	} {
		err := checkObjectiveFlags(tc.obj, tc.weight, tc.margin)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("checkObjectiveFlags(%q, %v, %d) = %v, want nil", tc.obj, tc.weight, tc.margin, err)
		case tc.flag != "" && err == nil:
			t.Errorf("checkObjectiveFlags(%q, %v, %d) = nil, want an error naming %s",
				tc.obj, tc.weight, tc.margin, tc.flag)
		case tc.flag != "" && !strings.Contains(err.Error(), tc.flag):
			t.Errorf("checkObjectiveFlags(%q, %v, %d): error %q does not name %s",
				tc.obj, tc.weight, tc.margin, err, tc.flag)
		}
	}
}

// TestDefArch checks that the -lef/-def path takes the architecture from
// the LEF library (lib), and rejects an -arch or -objective naming another
// one.
func TestDefArch(t *testing.T) {
	for _, c := range []struct {
		lib       tech.Arch
		arch, obj string
		want      tech.Arch
		errWords  []string // nil when the flags must be accepted
	}{
		{lib: tech.OpenM1, want: tech.OpenM1},
		{lib: tech.ClosedM1, want: tech.ClosedM1},
		{lib: tech.OpenM1, arch: "openm1", want: tech.OpenM1},
		{lib: tech.OpenM1, obj: "netsep", want: tech.OpenM1},
		{lib: tech.ClosedM1, arch: "closedm1", obj: "slackalpha", want: tech.ClosedM1},
		{lib: tech.OpenM1, arch: "closedm1", errWords: []string{"-arch closedm1", "OpenM1"}},
		{lib: tech.ClosedM1, arch: "openm1", errWords: []string{"-arch openm1", "ClosedM1"}},
		{lib: tech.OpenM1, obj: "closedm1", errWords: []string{"-objective closedm1", "ClosedM1", "OpenM1"}},
		{lib: tech.ClosedM1, obj: "netsep", errWords: []string{"-objective netsep", "OpenM1", "ClosedM1"}},
		{lib: tech.OpenM1, obj: "bogus", errWords: []string{"-objective", "bogus"}},
		{lib: tech.Conventional, errWords: []string{"Conventional"}},
	} {
		got, err := defArch(c.lib, c.arch, c.obj)
		name := fmt.Sprintf("defArch(%s, %q, %q)", c.lib, c.arch, c.obj)
		if c.errWords == nil {
			if err != nil || got != c.want {
				t.Errorf("%s = %v, %v; want %v", name, got, err, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s = %v, want an error", name, got)
			continue
		}
		for _, w := range c.errWords {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", name, err, w)
			}
		}
	}
}
