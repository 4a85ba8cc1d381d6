// Package results defines the typed results model shared by the whole
// experiments stack: every experiment produces a Result — one or more
// Series of typed Cells plus named scalar metrics and free-form notes
// — and every renderer (the fixed-width text tables in
// internal/expfmt, the JSON and CSV encoders in this package, and the
// CLI's sweep streamer) consumes that model instead of pre-rendered
// strings. A Cell carries a point value together with its 95%
// confidence half-width, the trial count behind it, and a unit, so
// downstream tooling never has to re-parse formatted tables.
package results

import (
	"fmt"
	"slices"
	"strconv"
)

// Kind discriminates the value a Cell holds.
type Kind uint8

const (
	// KindFloat is a float64 measurement (the default kind).
	KindFloat Kind = iota
	// KindInt is an exact integer (trial counts, node counts, rounds).
	KindInt
	// KindString is a categorical label (topology names, variants).
	KindString
	// KindBool is a predicate outcome (e.g. "within bound").
	KindBool
)

// Cell is one typed value of a Series row: a point estimate plus the
// statistical annotations the sweep engine and JSON consumers need.
// Exactly one of Value/Int/Text/Bool is meaningful, per Kind.
type Cell struct {
	Kind Kind
	// Value holds KindFloat cells.
	Value float64
	// Int holds KindInt cells.
	Int int64
	// Text holds KindString cells.
	Text string
	// Bool holds KindBool cells.
	Bool bool
	// CI95 is the 95% confidence half-width of Value when HasCI.
	CI95  float64
	HasCI bool
	// N is the number of independent trials behind the value; 0 means
	// unspecified.
	N int
	// Unit names the value's unit ("rounds", "agents/node", ...).
	Unit string
}

// Float returns a plain float cell.
func Float(v float64) Cell { return Cell{Kind: KindFloat, Value: v} }

// FloatCI returns a float cell annotated with its 95% confidence
// half-width and the trial count it was estimated from.
func FloatCI(v, ci95 float64, n int) Cell {
	return Cell{Kind: KindFloat, Value: v, CI95: ci95, HasCI: true, N: n}
}

// Int returns an integer cell.
func Int(v int64) Cell { return Cell{Kind: KindInt, Int: v} }

// String returns a label cell.
func String(s string) Cell { return Cell{Kind: KindString, Text: s} }

// Bool returns a predicate cell.
func Bool(b bool) Cell { return Cell{Kind: KindBool, Bool: b} }

// WithUnit returns a copy of c carrying the unit.
func (c Cell) WithUnit(unit string) Cell {
	c.Unit = unit
	return c
}

// WithN returns a copy of c carrying the trial count.
func (c Cell) WithN(n int) Cell {
	c.N = n
	return c
}

// Number returns the cell's numeric value and whether it has one
// (KindFloat and KindInt cells do).
func (c Cell) Number() (float64, bool) {
	switch c.Kind {
	case KindFloat:
		return c.Value, true
	case KindInt:
		return float64(c.Int), true
	default:
		return 0, false
	}
}

// Exact returns the cell's value in its exact textual form — full
// float precision, not the compacted table rendering. Machine-facing
// renderers (CSV) use it.
func (c Cell) Exact() string {
	switch c.Kind {
	case KindFloat:
		return strconv.FormatFloat(c.Value, 'g', -1, 64)
	case KindInt:
		return strconv.FormatInt(c.Int, 10)
	case KindBool:
		return strconv.FormatBool(c.Bool)
	default:
		return c.Text
	}
}

// From converts a raw Go value into a Cell, mirroring the value
// classes experiment tables historically mixed: floats, integers,
// booleans, and strings; anything else becomes its fmt %v rendering.
func From(v any) Cell {
	switch x := v.(type) {
	case Cell:
		return x
	case float64:
		return Float(x)
	case float32:
		return Float(float64(x))
	case int:
		return Int(int64(x))
	case int64:
		return Int(x)
	case int32:
		return Int(int64(x))
	case uint64:
		return Int(int64(x))
	case bool:
		return Bool(x)
	case string:
		return String(x)
	default:
		return String(fmt.Sprintf("%v", x))
	}
}

// Column describes one Series column.
type Column struct {
	// Name is the column header.
	Name string `json:"name"`
	// Unit names the unit shared by the column's cells, if any.
	Unit string `json:"unit,omitempty"`
	// CI reports that the column's cells carry confidence half-widths;
	// tabular renderers that must fix their header up front (the
	// streaming sweep writers) use it to reserve ci95/n columns.
	CI bool `json:"ci,omitempty"`
}

// Cols builds a Column list from bare header names.
func Cols(names ...string) []Column {
	out := make([]Column, len(names))
	for i, n := range names {
		out[i] = Column{Name: n}
	}
	return out
}

// Series is one table of an experiment's output: fixed columns and
// typed rows.
type Series struct {
	// Name labels the series within its Result; empty for an
	// experiment's single main table.
	Name    string   `json:"name,omitempty"`
	Columns []Column `json:"columns"`
	Rows    [][]Cell `json:"rows"`
}

// NewSeries returns an empty series over the named columns.
func NewSeries(name string, columns ...Column) *Series {
	return &Series{Name: name, Columns: columns}
}

// AddRow appends a row converted via From. It panics if the value
// count does not match the column count — a programming error in the
// experiment.
func (s *Series) AddRow(values ...any) {
	if len(values) != len(s.Columns) {
		panic(fmt.Sprintf("results: series %q row has %d values, want %d columns",
			s.Name, len(values), len(s.Columns)))
	}
	row := make([]Cell, len(values))
	for i, v := range values {
		row[i] = From(v)
	}
	s.Rows = append(s.Rows, row)
}

// AddCells appends an already-typed row, with the same arity check as
// AddRow.
func (s *Series) AddCells(cells ...Cell) {
	if len(cells) != len(s.Columns) {
		panic(fmt.Sprintf("results: series %q row has %d cells, want %d columns",
			s.Name, len(cells), len(s.Columns)))
	}
	s.Rows = append(s.Rows, append([]Cell(nil), cells...))
}

// AddRows appends n rows carved from one backing cell array and
// returns them for the caller to fill in place: one allocation for
// the block instead of one per row, for per-agent tables. Each row is
// capped at the column count, so appending to one cannot overwrite
// the next.
func (s *Series) AddRows(n int) [][]Cell {
	w := len(s.Columns)
	cells := make([]Cell, n*w)
	start := len(s.Rows)
	s.Rows = slices.Grow(s.Rows, n)
	for i := 0; i < n; i++ {
		s.Rows = append(s.Rows, cells[i*w:(i+1)*w:(i+1)*w])
	}
	return s.Rows[start:]
}

// NumRows returns the number of rows added so far.
func (s *Series) NumRows() int { return len(s.Rows) }

// Metrics holds an experiment's named scalar outcomes. It is a plain
// map with JSON encoding that survives non-finite values.
type Metrics map[string]float64

// Result is a complete structured experiment outcome.
type Result struct {
	// ID is the experiment identifier ("E01").
	ID string `json:"id"`
	// Title and Claim echo the registry entry that produced the run.
	Title string `json:"title,omitempty"`
	Claim string `json:"claim,omitempty"`
	// Seed and Quick record the parameters of the run.
	Seed  uint64 `json:"seed"`
	Quick bool   `json:"quick,omitempty"`
	// Series are the experiment's tables in emission order.
	Series []*Series `json:"series,omitempty"`
	// Metrics are the machine-checkable scalars (the same values the
	// test suite asserts on).
	Metrics Metrics `json:"metrics,omitempty"`
	// Notes are the free-form observations printed under the tables.
	Notes []string `json:"notes,omitempty"`
}

// AddSeries appends and returns a new series on r.
func (r *Result) AddSeries(name string, columns ...Column) *Series {
	s := NewSeries(name, columns...)
	r.Series = append(r.Series, s)
	return s
}

// SetMetric records a named scalar outcome, allocating Metrics on
// first use.
func (r *Result) SetMetric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = Metrics{}
	}
	r.Metrics[name] = v
}

// Metric returns the named metric and whether it was set.
func (r *Result) Metric(name string) (float64, bool) {
	v, ok := r.Metrics[name]
	return v, ok
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}
