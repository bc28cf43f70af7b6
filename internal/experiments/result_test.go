package experiments

import (
	"bytes"
	"encoding/csv"
	"errors"
	"strings"
	"testing"
)

// roundTripResults are the wire-form edge cases: a full table, a table
// with empty Rows and Notes, a table with nil slices, an empty-string
// cell, and a failed result.
func roundTripResults() []Result {
	return []Result{
		{ID: "E1", Table: &Table{
			ID:      "E1",
			Title:   "full table",
			Headers: []string{"a", "b"},
			Rows:    [][]string{{"1", "2"}, {"", "4"}},
			Notes:   []string{"first note", "second note"},
		}},
		{ID: "E2", Table: &Table{
			ID:      "E2",
			Title:   "empty rows and notes",
			Headers: []string{"only", "headers"},
			Rows:    [][]string{},
			Notes:   []string{},
		}},
		{ID: "E3", Table: &Table{ID: "E3", Title: "nil slices"}},
		{ID: "E4", Err: errors.New("runner exploded: giving up")},
	}
}

// TestEncodeDecodeJSONLossless: DecodeJSON inverts EncodeJSON up to
// the fields the wire form deliberately drops, so re-encoding the
// decoded slice reproduces the original bytes exactly — for every
// format, since text and CSV are functions of the same fields.
func TestEncodeDecodeJSONLossless(t *testing.T) {
	original := roundTripResults()
	var wire bytes.Buffer
	if err := EncodeJSON(&wire, original); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeJSON(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(original) {
		t.Fatalf("decoded %d results, want %d", len(decoded), len(original))
	}
	if decoded[3].Err == nil || decoded[3].Err.Error() != "runner exploded: giving up" {
		t.Fatalf("failed result's error lost: %v", decoded[3].Err)
	}
	for name, encode := range Encoders {
		var a, b bytes.Buffer
		if err := encode(&a, original); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := encode(&b, decoded); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: decoded slice encodes differently:\n--- original\n%s--- decoded\n%s",
				name, a.String(), b.String())
		}
	}
}

// TestDecodeJSONSetsTableID: the wire form stores the id once; the
// decoded table must get it back so text output keeps its header line.
func TestDecodeJSONSetsTableID(t *testing.T) {
	var wire bytes.Buffer
	if err := EncodeJSON(&wire, roundTripResults()[:1]); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeJSON(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if decoded[0].Table.ID != "E1" {
		t.Fatalf("table id = %q, want E1", decoded[0].Table.ID)
	}
}

func TestDecodeJSONRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "not json", `{"object":"not an array"}`} {
		if _, err := DecodeJSON(strings.NewReader(bad)); err == nil {
			t.Errorf("DecodeJSON(%q) succeeded", bad)
		}
	}
}

// TestEncodeCSVEscaping: cell values containing commas, double
// quotes, and newlines must survive a CSV write/read cycle intact.
func TestEncodeCSVEscaping(t *testing.T) {
	tricky := []string{
		`comma, in value`,
		`say "quoted"`,
		"line\nbreak",
		`both, "at" once`,
	}
	results := []Result{{ID: "E1", Table: &Table{
		ID:      "E1",
		Title:   "escaping",
		Headers: []string{`header, with comma`},
		Rows:    [][]string{{tricky[0]}, {tricky[1]}, {tricky[2]}, {tricky[3]}},
		Notes:   []string{`note with , and "`},
	}}}
	var buf bytes.Buffer
	if err := EncodeCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("encoder emitted unparsable CSV: %v", err)
	}
	// Header record + 4 cells + 1 note.
	if len(records) != 6 {
		t.Fatalf("got %d records, want 6", len(records))
	}
	for i, want := range tricky {
		rec := records[i+1]
		if rec[3] != `header, with comma` || rec[4] != want {
			t.Errorf("record %d = %q, want value %q", i+1, rec, want)
		}
	}
	if note := records[5]; note[3] != "_note" || note[4] != `note with , and "` {
		t.Errorf("note record = %q", note)
	}
}

// TestBodyStoredOncePerFormat: Body writes what each format's encoder
// writes for the one result. A result carrying a body store is encoded
// once per format, and every copy of it is served those same bytes;
// a copy pointed at another ID or table, a failed copy, a result with
// no store, and an unknown format are each handled afresh.
func TestBodyStoredOncePerFormat(t *testing.T) {
	for _, r := range roundTripResults() {
		stored := WithBodies(r)
		if (stored.bodies != nil) != (r.Err == nil) {
			t.Errorf("%s: WithBodies attached a store %v, want one only to a successful result", r.ID, stored.bodies != nil)
		}
		for format, encode := range Encoders {
			var want bytes.Buffer
			if err := encode(&want, []Result{r}); err != nil {
				t.Fatal(err)
			}
			first, err := Body(format, stored)
			if err != nil || !bytes.Equal(first, want.Bytes()) {
				t.Fatalf("%s %s: Body = %q, %v; want %q", r.ID, format, first, err, want.Bytes())
			}
			copied := stored
			copied.Cached = true
			again, _ := Body(format, copied)
			fresh, _ := Body(format, r)
			if stored.bodies != nil && &again[0] != &first[0] {
				t.Errorf("%s %s: a copy of a stored result was encoded again", r.ID, format)
			}
			if &fresh[0] == &first[0] || !bytes.Equal(again, want.Bytes()) || !bytes.Equal(fresh, want.Bytes()) {
				t.Errorf("%s %s: stored %q, fresh %q, want %q from separate encodings", r.ID, format, again, fresh, want.Bytes())
			}
		}
	}

	stored := WithBodies(roundTripResults()[0])
	if _, err := Body("json", stored); err != nil {
		t.Fatal(err)
	}
	altered := []Result{stored, stored, stored}
	altered[0].ID = "E9"
	altered[1].Table = &Table{ID: "E1", Title: "another table"}
	altered[2].Err = errors.New("failed after all")
	for _, r := range altered {
		var want bytes.Buffer
		if err := EncodeJSON(&want, []Result{r}); err != nil {
			t.Fatal(err)
		}
		if got, _ := Body("json", r); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("altered copy %+v served %q, want %q", r, got, want.Bytes())
		}
	}
	if _, err := Body("yaml", stored); err == nil || !strings.Contains(err.Error(), `unknown format "yaml"`) {
		t.Errorf("unknown format: err = %v", err)
	}
}

// TestShardBodyStoredOnce: ShardBody writes what EncodeShardEnvelope
// writes once decode accepts the aggregate. An envelope carrying a body
// store is checked and encoded once, and every copy of it is served
// that outcome, a rejection included; an envelope with no store and a
// copy altered in any field are each checked and encoded afresh.
func TestShardBodyStoredOnce(t *testing.T) {
	var decodes int
	decode := func(data []byte) (Aggregate, error) {
		decodes++
		if string(data) == `{"bad":true}` {
			return nil, errors.New("rejected")
		}
		return nil, nil
	}
	env := ShardEnvelope{ID: "E2", SpaceVersion: RegistryVersion, Prefixes: "0,1", Aggregate: []byte(`{"execs":7}`)}
	encode := func(env ShardEnvelope) []byte {
		var buf bytes.Buffer
		if err := EncodeShardEnvelope(&buf, env); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	stored := WithShardBody(env)
	first, err := ShardBody(stored, decode)
	if err != nil || !bytes.Equal(first, encode(env)) {
		t.Fatalf("ShardBody = %q, %v; want %q", first, err, encode(env))
	}
	copied := stored
	if again, _ := ShardBody(copied, decode); &again[0] != &first[0] || decodes != 1 {
		t.Errorf("a copy of a stored envelope was checked or encoded again (%d decodes)", decodes)
	}
	if fresh, _ := ShardBody(env, decode); &fresh[0] == &first[0] || !bytes.Equal(fresh, first) || decodes != 2 {
		t.Errorf("an envelope without a store was not checked and encoded afresh (%d decodes)", decodes)
	}
	altered := []ShardEnvelope{stored, stored, stored, stored, stored}
	altered[0].ID = "E15"
	altered[1].SpaceVersion = "other/v9"
	altered[2].Params = "k=3"
	altered[3].Prefixes = "0"
	altered[4].Aggregate = []byte(`{"execs":7}`)
	for _, a := range altered {
		if got, _ := ShardBody(a, decode); !bytes.Equal(got, encode(a)) || &got[0] == &first[0] {
			t.Errorf("altered copy %+v served %q, want %q", a, got, encode(a))
		}
	}
	if decodes != 2+len(altered) {
		t.Errorf("altered copies decoded %d times, want once each", decodes-2)
	}

	bad := WithShardBody(ShardEnvelope{ID: "E2", Prefixes: "0", Aggregate: []byte(`{"bad":true}`)})
	decodes = 0
	for i := 0; i < 3; i++ {
		if body, err := ShardBody(bad, decode); err == nil || body != nil {
			t.Fatalf("a rejected aggregate served %q, %v", body, err)
		}
	}
	if decodes != 1 {
		t.Errorf("a stored rejection was checked %d times, want once", decodes)
	}
	if WithShardBody(ShardEnvelope{ID: "E2", Prefixes: "0"}).body != nil {
		t.Error("WithShardBody attached a store to an envelope with no aggregate")
	}
}
