package main

import (
	"strings"
	"testing"
)

func TestRunDispatch(t *testing.T) {
	// A real id renders its table; e10 is the cheapest full one.
	var out strings.Builder
	if err := run(&out, "e10"); err != nil {
		t.Fatalf("e10: %v", err)
	}
	if !strings.Contains(out.String(), "== E10:") {
		t.Errorf("e10 did not render its table:\n%s", out.String())
	}
	if err := run(&out, "e7"); err != nil {
		t.Errorf("e7: %v", err)
	}
	// Ids past e10 are retired; they are refused like any unknown id.
	for _, id := range []string{"e11", "nope"} {
		err := run(&out, id)
		if err == nil || !strings.Contains(err.Error(), "want e1..e10 or all") {
			t.Errorf("%s: err = %v, want the unknown-experiment error", id, err)
		}
	}
}
