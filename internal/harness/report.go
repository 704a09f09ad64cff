package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteCSV emits the result as RFC-4180 CSV (header row first). Notes are
// appended as comment-style rows prefixed with "#" in the first column.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if err := cw.Write([]string{"# " + n}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// resultJSON is the stable JSON shape of a Result.
type resultJSON struct {
	ID     string              `json:"id"`
	Title  string              `json:"title"`
	Header []string            `json:"header"`
	Rows   []map[string]string `json:"rows"`
	// Series is the same data column-major (header key -> cell values in
	// row order), the shape plotting scripts consume directly.
	Series map[string][]string `json:"series"`
	Notes  []string            `json:"notes,omitempty"`
}

// jsonKeys maps header names to unique row keys (duplicate headers get
// positional suffixes).
func (r *Result) jsonKeys() []string {
	keys := make([]string, len(r.Header))
	seen := map[string]int{}
	for i, h := range r.Header {
		k := h
		if n := seen[h]; n > 0 {
			k = fmt.Sprintf("%s_%d", h, n)
		}
		seen[h]++
		keys[i] = k
	}
	return keys
}

func (r *Result) toJSON() resultJSON {
	keys := r.jsonKeys()
	out := resultJSON{
		ID: r.ID, Title: r.Title, Header: r.Header, Notes: r.Notes,
		Series: map[string][]string{},
	}
	for _, k := range keys {
		out.Series[k] = []string{}
	}
	for _, row := range r.Rows {
		m := make(map[string]string, len(row))
		for i, cell := range row {
			key := fmt.Sprintf("col%d", i)
			if i < len(keys) {
				key = keys[i]
			}
			m[key] = cell
			out.Series[key] = append(out.Series[key], cell)
		}
		out.Rows = append(out.Rows, m)
	}
	return out
}

// WriteJSON emits the result as a JSON object whose rows are keyed by the
// header names (duplicate headers get positional suffixes), with the same
// data repeated column-major under "series".
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.toJSON())
}

// suiteJSON is the shape tangobench -json emits: every result of the run
// in one machine-readable document.
type suiteJSON struct {
	Results []resultJSON `json:"results"`
}

// WriteSuiteJSON emits several results as one JSON document.
func WriteSuiteJSON(w io.Writer, results []*Result) error {
	suite := suiteJSON{Results: []resultJSON{}}
	for _, r := range results {
		suite.Results = append(suite.Results, r.toJSON())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(suite)
}

// CheckFormat reports whether Format knows the format name, so a CLI can
// refuse a bad -format before running anything.
func CheckFormat(format string) error {
	switch strings.ToLower(format) {
	case "", "table", "text", "csv", "json":
		return nil
	}
	return fmt.Errorf("harness: unknown format %q (table|csv|json)", format)
}

// Format renders the result in the named format: "table" (default),
// "csv", or "json".
func (r *Result) Format(w io.Writer, format string) error {
	switch strings.ToLower(format) {
	case "csv":
		return r.WriteCSV(w)
	case "json":
		return r.WriteJSON(w)
	}
	if err := CheckFormat(format); err != nil {
		return err
	}
	_, err := io.WriteString(w, r.String())
	return err
}
