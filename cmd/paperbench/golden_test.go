//go:build !race

// The golden takes seconds plain and about a minute under the race
// detector, so race builds skip this file; CI runs it once without.

package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateExpAll = flag.Bool("update-exp-all", false, "rewrite testdata/exp_all.golden")

const expAllGolden = "testdata/exp_all.golden"

// TestExpAllGolden pins every table and figure of `paperbench -exp all`
// byte for byte: every experiment runs at fixed seeds, so a refactor
// must leave the output as it is.  Regenerate with -update-exp-all
// only for a change meant to alter the results.
func TestExpAllGolden(t *testing.T) {
	got, err := capture(t, func() error { return run("all", 0) })
	if err != nil {
		t.Fatal(err)
	}
	if *updateExpAll {
		if err := os.WriteFile(expAllGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(expAllGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-exp-all)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs from %s (of %d lines, want %d):\n got %s\nwant %s",
				i+1, expAllGolden, len(gl), len(wl), g, w)
		}
	}
}
