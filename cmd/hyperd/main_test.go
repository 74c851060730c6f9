package main

import (
	"strings"
	"testing"
	"time"
)

func TestServeRejectsBadAddr(t *testing.T) {
	if err := runServe([]string{"-addr", "256.256.256.256:0"}); err == nil {
		t.Fatal("accepted unusable listen address")
	}
}

// TestRejectsPositionalArgs checks that a word the flag parser stops at
// is an error naming it, returned before anything listens.  Without the
// check each of these would serve (and, for all but the last, ignore
// every flag after the word).
func TestRejectsPositionalArgs(t *testing.T) {
	for _, c := range []struct {
		run  func([]string) error
		args []string
		word string
	}{
		{runServe, []string{"bench"}, "bench"},
		{runServe, []string{"rout", "-peers", "http://127.0.0.1:1", "-addr", "127.0.0.1:0"}, "rout"},
		{runServe, []string{"-addr", "127.0.0.1:0", "bogus", "-workers", "3"}, "bogus"},
		{runRoute, []string{"-peers", "http://127.0.0.1:1", "-addr", "127.0.0.1:0", "extra"}, "extra"},
	} {
		errc := make(chan error, 1)
		go func() { errc <- c.run(c.args) }()
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), `"`+c.word+`"`) || !strings.Contains(err.Error(), "route") {
				t.Errorf("%q: got %v, want an error naming %q and the route subcommand", c.args, err, c.word)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%q is still running: it served instead of rejecting %q", c.args, c.word)
		}
	}
}
