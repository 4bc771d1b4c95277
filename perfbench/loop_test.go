package main

import (
	"math"
	"testing"
	"time"
)

// TestWrongOutputFailsRun checks that one wrong output fails the whole
// run, while a failed call fails only its operation.
func TestWrongOutputFailsRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		o       outcome
		correct bool
	}{
		{"ok", outcome{search: true, latency: time.Millisecond}, true},
		{"failed call", outcome{search: true, latency: time.Millisecond, failed: true}, true},
		{"wrong output", outcome{search: true, latency: time.Millisecond, wrong: true}, false},
	} {
		var c tally
		c.add(outcome{search: true, latency: time.Millisecond})
		c.add(tc.o)
		var all tally
		all.merge(c)
		rep := &report{Correct: true}
		rep.count(all)
		if rep.Correct != tc.correct {
			t.Errorf("%s: correct = %v, want %v", tc.name, rep.Correct, tc.correct)
		}
		bad := tc.o.failed || tc.o.wrong
		if want := map[bool]int{false: 0, true: 1}[bad]; rep.Attempted != 2 || rep.Failed != want {
			t.Errorf("%s: attempted %d failed %d, want 2 and %d", tc.name, rep.Attempted, rep.Failed, want)
		}
		if got := all.search[1]; math.IsInf(got, 1) != bad {
			t.Errorf("%s: latency %v; a failed or wrong operation must read +Inf", tc.name, got)
		}
	}
}
