package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 15 {
		t.Fatalf("%d experiments registered, want 15", len(ids))
	}
	if ids[0] != "E1" || ids[14] != "E15" {
		t.Fatalf("ids = %v", ids)
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := runDefault(Registry()[id])
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Headers) {
					t.Fatalf("%s: row width %d vs %d headers", id, len(row), len(tab.Headers))
				}
			}
			out := tab.Format()
			if !strings.Contains(out, tab.ID) || !strings.Contains(out, tab.Headers[0]) {
				t.Fatalf("%s: malformed output", id)
			}
		})
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "test",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"xxx", "y"}},
		Notes:   []string{"n"},
	}
	out := tab.Format()
	for _, want := range []string{"EX", "a", "bb", "xxx", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}
