package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestFormats(t *testing.T) {
	for format, want := range map[string]string{
		"dot":   "digraph",
		"arcs":  " ",
		"stats": "strongly-connected=true",
	} {
		var out bytes.Buffer
		if err := run([]string{"-n", "20", "-format", format}, &out); err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("format %s output missing %q:\n%s", format, want, out.String())
		}
	}
}

func TestTransitStub(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-topology", "transit-stub", "-n", "30", "-format", "stats"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "vertices=") {
		t.Errorf("stats malformed: %s", out.String())
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-topology", "nope"},
		{"-format", "nope"},
		{"-n", "1"},
		{"-topology", "transit-stub", "-n", "-3"},
		{"-topology", "transit-stub", "-n", "0"},
		{"-topology", "transit-stub", "-n", "1"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
