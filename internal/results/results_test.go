package results

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleResult() *Result {
	r := &Result{
		ID:    "EXX",
		Title: "sample",
		Claim: "claim",
		Seed:  12345,
		Quick: true,
	}
	s := r.AddSeries("main",
		Column{Name: "d", Unit: "agents/node"},
		Column{Name: "mean", Unit: "agents/node", CI: true},
		Column{Name: "topo"},
		Column{Name: "rounds"},
		Column{Name: "ok"},
	)
	s.AddCells(Float(0.1), FloatCI(0.1012, 0.003, 6), String("torus2d"), Int(1500), Bool(true))
	s.AddCells(Float(0.2), FloatCI(0.1987, 0.004, 6).WithUnit("agents/node"), String("ring"), Int(250), Bool(false))
	r.SetMetric("bias", 1.002)
	r.SetMetric("slope", -0.51)
	r.Notef("note %d of %d", 1, 2)
	return r
}

func TestJSONRoundTrip(t *testing.T) {
	want := sampleResult()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip drifted:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestJSONNonFiniteFloats(t *testing.T) {
	r := &Result{ID: "E", Seed: 1}
	s := r.AddSeries("", Column{Name: "x"})
	s.AddCells(Float(math.NaN()))
	s.AddCells(Float(math.Inf(1)))
	s.AddCells(Float(math.Inf(-1)))
	r.SetMetric("nan", math.NaN())
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatalf("non-finite floats must serialize, got %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("output is not valid JSON:\n%s", buf.String())
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rows := got.Series[0].Rows
	if !math.IsNaN(rows[0][0].Value) || !math.IsInf(rows[1][0].Value, 1) || !math.IsInf(rows[2][0].Value, -1) {
		t.Errorf("non-finite values did not survive: %v %v %v",
			rows[0][0].Value, rows[1][0].Value, rows[2][0].Value)
	}
	if !math.IsNaN(got.Metrics["nan"]) {
		t.Errorf("metric NaN did not survive: %v", got.Metrics["nan"])
	}
	if strings.Contains(buf.String(), "NaN,") {
		t.Errorf("raw NaN leaked into JSON:\n%s", buf.String())
	}
}

func TestCellKindsRoundTrip(t *testing.T) {
	cells := []Cell{
		Float(1.5),
		Float(0),
		FloatCI(2.5, 0.25, 10).WithUnit("rounds"),
		Int(0),
		Int(-7),
		String(""),
		String("hello, world"),
		Bool(false),
		Bool(true),
	}
	for _, c := range cells {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		var got Cell
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("cell %s round-tripped to %+v, want %+v", b, got, c)
		}
	}
}

func TestFromConversions(t *testing.T) {
	tests := []struct {
		in   any
		want Cell
	}{
		{1.25, Float(1.25)},
		{float32(0.5), Float(0.5)},
		{42, Int(42)},
		{int64(1 << 40), Int(1 << 40)},
		{int32(-3), Int(-3)},
		{true, Bool(true)},
		{"torus2d", String("torus2d")},
		{struct{ X int }{7}, String("{7}")},
		{Float(9), Float(9)},
	}
	for _, tt := range tests {
		if got := From(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("From(%v) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
}

func TestSeriesArityPanics(t *testing.T) {
	s := NewSeries("t", Cols("a", "b")...)
	defer func() {
		if recover() == nil {
			t.Error("row with wrong arity did not panic")
		}
	}()
	s.AddRow(1)
}

func TestWriteCSV(t *testing.T) {
	r := sampleResult()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	wantHeader := "d,mean,mean ci95,mean n,topo,rounds,ok\n"
	if !strings.HasPrefix(got, wantHeader) {
		t.Errorf("CSV header = %q, want prefix %q", got, wantHeader)
	}
	if !strings.Contains(got, "0.1012,0.003,6,torus2d,1500,true") {
		t.Errorf("CSV missing full-precision row:\n%s", got)
	}
	lines := strings.Count(got, "\n")
	if lines != 3 {
		t.Errorf("CSV has %d lines, want 3 (header + 2 rows)", lines)
	}
}

func TestWriteCSVMultipleSeries(t *testing.T) {
	r := &Result{ID: "E"}
	r.AddSeries("a", Cols("x")...).AddRow(1)
	r.AddSeries("b", Cols("y")...).AddRow(2.5)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "x\n1\n\ny\n2.5\n"; got != want {
		t.Errorf("multi-series CSV = %q, want %q", got, want)
	}
}

func TestCellExact(t *testing.T) {
	a, b := 0.1, 0.2
	if got := Float(a + b).Exact(); got != "0.30000000000000004" {
		t.Errorf("Exact float = %q, want full precision", got)
	}
	if got := Int(123).Exact(); got != "123" {
		t.Errorf("Exact int = %q", got)
	}
	if got := String("x,y").Exact(); got != "x,y" {
		t.Errorf("Exact string = %q", got)
	}
	if got := Bool(true).Exact(); got != "true" {
		t.Errorf("Exact bool = %q", got)
	}
}

func TestNumber(t *testing.T) {
	if v, ok := Int(3).Number(); !ok || v != 3 {
		t.Errorf("Int Number = %v, %v", v, ok)
	}
	if v, ok := Float(1.5).Number(); !ok || v != 1.5 {
		t.Errorf("Float Number = %v, %v", v, ok)
	}
	if _, ok := String("x").Number(); ok {
		t.Error("String Number reported ok")
	}
}

// TestAddRowsMatchesAddRow checks that rows filled in place from one
// backing array encode to the same JSON and CSV bytes as AddRow rows,
// and that appending to one row cannot overwrite the next.
func TestAddRowsMatchesAddRow(t *testing.T) {
	ests := []float64{0.25, math.Inf(1), 0, 1.0 / 3}
	byRow, filled := &Result{ID: "x"}, &Result{ID: "x"}
	a := byRow.AddSeries("estimates", Cols("agent", "estimate", "vote")...)
	b := filled.AddSeries("estimates", Cols("agent", "estimate", "vote")...)
	a.AddRow("head", 0.5, true)
	b.AddRow("head", 0.5, true)
	rows := b.AddRows(len(ests))
	for i, e := range ests {
		a.AddRow(i, e, e > 0.2)
		rows[i][0], rows[i][1], rows[i][2] = Int(int64(i)), Float(e), Bool(e > 0.2)
	}
	for _, enc := range []func(*bytes.Buffer, *Result) error{
		func(w *bytes.Buffer, r *Result) error { return WriteJSON(w, r) },
		func(w *bytes.Buffer, r *Result) error { return WriteCSV(w, r) },
	} {
		var wa, wb bytes.Buffer
		if err := enc(&wa, byRow); err != nil {
			t.Fatal(err)
		}
		if err := enc(&wb, filled); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
			t.Fatalf("AddRows encoding differs:\n%s\nvs AddRow:\n%s", wb.String(), wa.String())
		}
	}
	if grown := append(b.Rows[1], String("extra")); len(grown) != 4 || !reflect.DeepEqual(b.Rows[2], a.Rows[2]) {
		t.Fatal("appending to a row overwrote the next row")
	}
}
