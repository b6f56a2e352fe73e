package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"
)

// detailCases are Detail strings the JSONL encoder must escape: quoting
// and control characters, the JSONP separators, non-ASCII text, and bytes
// that are not UTF-8.
var detailCases = []string{
	"completed", "", `say "hi"`, `back\slash`, "tab\there", "new\nline", "cr\r\b\f",
	"bell\a", "\x1b[0m", "\x00", "del\x7f", "sep\u2028\u2029", "é", "日本語 🚀",
	"a\x80b", "\xff\xfe", "trunc\xe6\x97",
}

// TestDetailEscapesRoundTrip writes a branch event for each detail case
// and reads it back: ReadLog accepts the line, the detail comes back (with
// each byte of invalid UTF-8 as U+FFFD, as encoding/json decodes it), the
// line is what encoding/json would write, and the log read back renders to
// the same bytes whenever the detail was valid UTF-8.
func TestDetailEscapesRoundTrip(t *testing.T) {
	for _, d := range detailCases {
		var buf bytes.Buffer
		r := New(Options{Sink: NewJSONL(&buf)})
		r.Branch(d, 1, 2, 3)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		wantLine := `{"t":0,"ev":"branch","job":-1,"node":3,"lender":-1,"mb":2,"aux":1,"v":"0","detail":` +
			string(appendStringRef(nil, d)) + "}\n"
		if buf.String() != wantLine {
			t.Errorf("detail %q: wrote %q, want %q", d, buf.String(), wantLine)
		}
		log, err := ReadLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Errorf("detail %q: ReadLog refused the line: %v", d, err)
			continue
		}
		events := collect(t, log).events
		want := d
		if !utf8.ValidString(d) {
			want = replaceInvalid(d)
		}
		if len(events) != 1 || events[0].Detail != want {
			t.Errorf("detail %q: read back %+v, want detail %q", d, events, want)
			continue
		}
		if !utf8.ValidString(d) {
			continue
		}
		var back bytes.Buffer
		if err := log.WriteJSONL(&back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), buf.Bytes()) {
			t.Errorf("detail %q: log read back renders %q, want %q", d, back.String(), buf.String())
		}
	}
}

// replaceInvalid replaces each byte of s that is not part of valid UTF-8
// with U+FFFD.
func replaceInvalid(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		b.WriteRune(r) // RuneError for an invalid byte
		i += size
	}
	return b.String()
}

// FuzzReadLog holds the reader to two properties: it never panics, and a
// log it accepts renders to a fixed point — reading back what WriteJSONL
// wrote succeeds and renders the same bytes again.
func FuzzReadLog(f *testing.F) {
	for _, seed := range []string{
		`{"t":0,"ev":"pool_sample","free_mb":2621440,"lent_mb":0,"queue":0,"busy":0,"running":0}
{"t":162.6145023979572,"ev":"job_submit","job":1,"node":-1,"lender":-1,"mb":0,"aux":0,"v":"0","detail":""}
{"t":162.6145023979572,"ev":"job_start","job":1,"node":1,"lender":-1,"mb":83617,"aux":0,"v":"0","detail":""}
{"t":300,"ev":"pool_sample","free_mb":2537823,"lent_mb":0,"queue":0,"busy":1,"running":1}
`,
		`{"t":373.59622587955596,"ev":"job_end","job":1,"node":-1,"lender":-1,"mb":0,"aux":0,"v":"0","detail":"completed"}
{"t":2231.0355592983387,"ev":"backfill_hole","job":17,"node":-1,"lender":-1,"mb":0,"aux":0,"v":"+Inf","detail":""}
`,
		`{"t":8403.618059754572,"ev":"pool_watermark","job":-1,"node":-1,"lender":-1,"mb":1219100,"aux":50,"v":"0.46504974365234375","detail":""}`,
		`{"t":1,"ev":"branch","detail":"\u0007"}`,
		`{"t":1,"ev":"branch","detail":"\u001b[0m"}`,
		"{\"t\":1,\"ev\":\"branch\",\"detail\":\"a\x80b\"}",
		`{"t":1,"ev":"branch","detail":"\"\\\t\n\u007f é"}`,
		`{"t":-0,"ev":"lease_adjust","v":"-0"}`,
		`{"t":1,"ev":"mystery"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := log.WriteJSONL(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ReadLog(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadLog refused its own rendering: %v\n%q", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSONL(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("rendering is not a fixed point:\n%s", firstDiff(second.Bytes(), first.Bytes()))
		}
	})
}
