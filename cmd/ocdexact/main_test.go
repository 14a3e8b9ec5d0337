package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestFigure1Gadget(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-gadget", "figure1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"FOCD optimum: tau=2",
		"EOCD optimum: bandwidth=4",
		"min bandwidth at tau*=2: 6 moves",
		"ILP tau=2: bandwidth=6",
		"ILP tau=3: bandwidth=4",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestRandomTiny(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "4", "-tokens", "2", "-seed", "5", "-ilp=false"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "FOCD optimum") {
		t.Errorf("output malformed:\n%s", out.String())
	}
}

func TestUnknownGadget(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-gadget", "nope"}, &out); err == nil {
		t.Error("unknown gadget accepted")
	}
}

func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-n", "0"}, "-n"},
		{[]string{"-n", "-3"}, "-n"},
		{[]string{"-n", "1"}, "-n"},
		{[]string{"-tokens", "0"}, "-tokens"},
		{[]string{"-budget", "-5"}, "-budget"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" must be") {
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
		if out.Len() > 0 {
			t.Errorf("%v: printed %q before rejecting the flag", tc.args, out.String())
		}
	}
}

func TestAlreadySatisfiedInstance(t *testing.T) {
	// Seed 2 puts the only token's source and wanter on one vertex: every
	// optimum is zero, and the ILP cross-check has no horizon to solve.
	var out bytes.Buffer
	if err := run([]string{"-n", "2", "-tokens", "1", "-seed", "2"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"FOCD optimum: tau=0", "EOCD optimum: bandwidth=0", "ILP skipped"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
}
