package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

// parseCSV parses emitted CSV and returns header + rows, enforcing a
// rectangular shape (encoding/csv already errors on ragged rows).
func parseCSV(t *testing.T, buf *bytes.Buffer) ([]string, [][]string) {
	t.Helper()
	r := csv.NewReader(buf)
	all, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("empty CSV")
	}
	return all[0], all[1:]
}

func TestThroughputGridCSV(t *testing.T) {
	p := tiny()
	tr0, err := p.SyntheticTrace(0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := p.BaselineNorm(tr0.Jobs, p.SystemNodes)
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.ThroughputSweep(tr0.Jobs, p.SystemNodes, norm, "large 25%", 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header, rows := parseCSV(t, &buf)
	if strings.Join(header, ",") != "trace,overest,mem_pct,policy,norm_throughput" {
		t.Fatalf("header = %v", header)
	}
	if len(rows) != 8*3 {
		t.Fatalf("rows = %d, want 24 (8 configs × 3 policies)", len(rows))
	}
	// Infeasible cells are empty, feasible ones parse as floats.
	for _, row := range rows {
		if row[4] == "" {
			continue
		}
		if !strings.ContainsAny(row[4], "0123456789") {
			t.Fatalf("bad throughput cell %q", row[4])
		}
	}
}

func TestFig6CSV(t *testing.T) {
	p := tiny()
	f, err := RunFig6(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header, rows := parseCSV(t, &buf)
	if header[0] != "scenario" || header[4] != "response_s" {
		t.Fatalf("header = %v", header)
	}
	if len(rows) == 0 {
		t.Fatal("no ECDF rows")
	}
}

func TestFig7CSV(t *testing.T) {
	p := tiny()
	f, err := RunFig7(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	_, rows := parseCSV(t, &buf)
	want := 8 * len(Fig7LargeFracs) * 2 // panels × mixes × policies
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
}

func TestFig9CSV(t *testing.T) {
	p := tiny()
	f8, err := RunFig8(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	f9, err := Fig9FromFig8(f8, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f9.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	_, rows := parseCSV(t, &buf)
	if len(rows) != len(Fig8Overests)*2 {
		t.Fatalf("rows = %d", len(rows))
	}

	var buf8 bytes.Buffer
	if err := f8.WriteCSV(&buf8); err != nil {
		t.Fatal(err)
	}
	_, rows8 := parseCSV(t, &buf8)
	if len(rows8) != len(Fig8Overests)*8*3 {
		t.Fatalf("fig8 rows = %d", len(rows8))
	}
}

func TestTableAndFig24CSV(t *testing.T) {
	p := tiny()
	t2, err := RunTable2(p, p.GrizzlyDataset())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := t2.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	_, rows := parseCSV(t, &buf)
	if len(rows) != 5*3*2 { // buckets × classes × traces
		t.Fatalf("table2 rows = %d", len(rows))
	}

	t3, err := RunTable3(p)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := t3.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, rows = parseCSV(t, &buf); len(rows) != 4 {
		t.Fatalf("table3 rows = %d", len(rows))
	}

	f2, err := RunFig2(p, p.GrizzlyDataset())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f2.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, rows = parseCSV(t, &buf); len(rows) != p.GrizzlyWeeks {
		t.Fatalf("fig2 rows = %d", len(rows))
	}

	f4, err := RunFig4(p)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f4.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, rows = parseCSV(t, &buf); len(rows) != 2*5*8 {
		t.Fatalf("fig4 rows = %d", len(rows))
	}
}

func TestAblationCSVs(t *testing.T) {
	p := tiny()
	au, err := RunAblationUpdateInterval(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := au.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, rows := parseCSV(t, &buf); len(rows) != len(UpdateIntervals) {
		t.Fatalf("update rows = %d", len(rows))
	}

	ao, err := RunAblationOOM(p)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ao.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, rows := parseCSV(t, &buf); len(rows) != 4 {
		t.Fatalf("oom rows = %d", len(rows))
	}

	ab, err := RunAblationBackfill(p)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, rows := parseCSV(t, &buf); len(rows) != 6 {
		t.Fatalf("backfill rows = %d", len(rows))
	}

	al, err := RunAblationLender(p)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := al.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, rows := parseCSV(t, &buf); len(rows) != 6 {
		t.Fatalf("lender rows = %d", len(rows))
	}
}
