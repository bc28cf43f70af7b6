package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// EncodeText writes the aligned-text tables, one per successful result
// separated by a blank line — byte-identical to running each table's
// Format serially in result order, and independent of Jobs. Failed
// results are written as a one-line error marker.
func EncodeText(w io.Writer, results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			if _, err := fmt.Fprintf(w, "== %s: FAILED: %v ==\n\n", r.ID, r.Err); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintln(w, r.Table.Format()); err != nil {
			return err
		}
	}
	return nil
}

// jsonResult is the wire form of a Result. Durations are deliberately
// omitted so that the encoding is a pure function of the experiment
// outputs: two runs with different Jobs settings encode identically.
type jsonResult struct {
	ID      string     `json:"id"`
	Title   string     `json:"title,omitempty"`
	Headers []string   `json:"headers,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Notes   []string   `json:"notes,omitempty"`
	Error   string     `json:"error,omitempty"`
}

// EncodeJSON writes the results as one JSON array of table objects.
func EncodeJSON(w io.Writer, results []Result) error {
	out := make([]jsonResult, 0, len(results))
	for _, r := range results {
		jr := jsonResult{ID: r.ID}
		if r.Err != nil {
			jr.Error = r.Err.Error()
		} else {
			jr.Title = r.Table.Title
			jr.Headers = r.Table.Headers
			jr.Rows = r.Table.Rows
			jr.Notes = r.Table.Notes
		}
		out = append(out, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// DecodeJSON reads a result slice back from the wire form written by
// EncodeJSON. The wire form is a pure function of the experiment
// outputs, so decoding is lossy only in the fields EncodeJSON already
// drops: Duration is zero, Panicked is false, and a failed result's
// error is reconstructed as an opaque error with the encoded message.
// For every result slice rs, EncodeJSON(DecodeJSON(EncodeJSON(rs)))
// is byte-identical to EncodeJSON(rs) — the property the cache layer
// relies on to make warm runs emit the same bytes as cold runs.
func DecodeJSON(r io.Reader) ([]Result, error) {
	var in []jsonResult
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("experiments: decoding results: %w", err)
	}
	results := make([]Result, len(in))
	for i, jr := range in {
		if jr.Error != "" {
			results[i] = Result{ID: jr.ID, Err: errors.New(jr.Error)}
			continue
		}
		results[i] = Result{ID: jr.ID, Table: &Table{
			ID:      jr.ID,
			Title:   jr.Title,
			Headers: jr.Headers,
			Rows:    jr.Rows,
			Notes:   jr.Notes,
		}}
	}
	return results, nil
}

// EncodeCSV writes the results in long form, one record per table cell:
//
//	experiment,row,column,header,value
//
// The long form keeps the file rectangular even though each experiment
// has its own column set. Notes and errors are emitted with the
// pseudo-headers "_note" and "_error" (row numbering continues, column
// is 0).
func EncodeCSV(w io.Writer, results []Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "row", "column", "header", "value"}); err != nil {
		return err
	}
	for _, r := range results {
		if r.Err != nil {
			if err := cw.Write([]string{r.ID, "0", "0", "_error", r.Err.Error()}); err != nil {
				return err
			}
			continue
		}
		for ri, row := range r.Table.Rows {
			for ci, cell := range row {
				header := ""
				if ci < len(r.Table.Headers) {
					header = r.Table.Headers[ci]
				}
				if err := cw.Write([]string{r.ID, itoa(ri), itoa(ci), header, cell}); err != nil {
					return err
				}
			}
		}
		for ni, note := range r.Table.Notes {
			if err := cw.Write([]string{r.ID, itoa(len(r.Table.Rows) + ni), "0", "_note", note}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Encoders maps the format names the CLI accepts to their encoder.
var Encoders = map[string]func(io.Writer, []Result) error{
	"text": EncodeText,
	"json": EncodeJSON,
	"csv":  EncodeCSV,
}

// LookupEncoder resolves a format name, naming the known formats in
// the error so every caller rejects bad input with the same message.
func LookupEncoder(format string) (func(io.Writer, []Result) error, error) {
	if encode, ok := Encoders[format]; ok {
		return encode, nil
	}
	known := make([]string, 0, len(Encoders))
	for name := range Encoders {
		known = append(known, name)
	}
	sort.Strings(known)
	return nil, fmt.Errorf("unknown format %q (have %s)", format, strings.Join(known, ", "))
}

// bodies is one shared Result's response body per format, each
// encoded on its first use. It names the ID and Table it was made
// for, so a copy of the Result that a caller pointed elsewhere is
// encoded afresh instead of served another table's bytes.
type bodies struct {
	id              string
	table           *Table
	text, json, csv storedBody
}

// storedBody is one encoding, filled once: a whole result's in one
// format, or a slice envelope's (shardBody).
type storedBody struct {
	once sync.Once
	b    []byte
	err  error
}

// WithBodies returns r carrying an empty per-format body store, which
// Body fills on first use per format and serves from after. It is for
// a Result that is verified once and then shared read-only:
// cache.Store attaches one to each Result its memory tier fills with,
// and internal/shard's coordinator to each worker answer and merged
// table it records. A failed result gets none.
func WithBodies(r Result) Result {
	if r.Err == nil && r.Table != nil {
		r.bodies = &bodies{id: r.ID, table: r.Table}
	}
	return r
}

// Body returns the response body of r alone in format: what the
// format's encoder writes for []Result{r}. A Result carrying a body
// store (WithBodies), with the ID and Table it was made for and no
// Err, is encoded once per format, and every later call returns the
// same stored bytes: they are shared, like the Table, and read-only.
// Any other Result — a fresh run, a failure, an altered copy — is
// encoded on every call.
func Body(format string, r Result) ([]byte, error) {
	encode, err := LookupEncoder(format)
	if err != nil {
		return nil, err
	}
	sb := r.bodies.slot(format, r)
	if sb == nil {
		return encodeOne(encode, r)
	}
	sb.once.Do(func() { sb.b, sb.err = encodeOne(encode, r) })
	return sb.b, sb.err
}

// slot returns the store's entry for format when the store belongs to
// r, and nil otherwise.
func (bs *bodies) slot(format string, r Result) *storedBody {
	if bs == nil || r.Err != nil || r.ID != bs.id || r.Table != bs.table {
		return nil
	}
	switch format {
	case "text":
		return &bs.text
	case "json":
		return &bs.json
	case "csv":
		return &bs.csv
	}
	return nil
}

// encodeOne encodes the single result r, capping the returned slice at
// its length so an append by a reader cannot write into shared bytes.
func encodeOne(encode func(io.Writer, []Result) error, r Result) ([]byte, error) {
	var buf bytes.Buffer
	err := encode(&buf, []Result{r})
	b := buf.Bytes()
	return b[:len(b):len(b)], err
}
