// Command dmpobs summarizes a telemetry event log written by dmpsim or
// dmpexp (-telemetry): event counts, job outcomes, what-if branch economics
// (prefix events shared, CoW copies paid), lease flow, watermark crossings,
// pool statistics, and terminal timelines for pool occupancy, queue depth,
// and per-node borrow/lend volume.
//
// Usage:
//
//	dmpobs run.jsonl
//	dmpobs -prom aggregates.txt run.jsonl
//	dmpobs -          # read the log from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"dismem/internal/telemetry"
	"dismem/internal/textplot"
)

func main() {
	var (
		promPath = flag.String("prom", "", "also write Prometheus text-format aggregates of the log here")
		width    = flag.Int("width", 72, "timeline width in characters")
		top      = flag.Int("top", 8, "rows in the per-node borrow/lend charts")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dmpobs [-prom out.txt] [-width N] [-top N] <run.jsonl | ->")
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	name := flag.Arg(0)
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		in = f
	} else {
		name = "(stdin)"
	}

	log, err := telemetry.ReadLog(in)
	if err != nil {
		fail("%v", err)
	}
	if err := summarize(os.Stdout, name, log, *width, *top); err != nil {
		fail("%v", err)
	}

	if *promPath != "" {
		prom := telemetry.NewPromSink()
		if err := log.Replay(prom); err != nil {
			fail("prom: %v", err)
		}
		f, err := os.Create(*promPath)
		if err != nil {
			fail("%v", err)
		}
		if err := prom.WriteText(f); err != nil {
			f.Close()
			fail("prom: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("prom: %v", err)
		}
		fmt.Printf("\nwrote Prometheus aggregates to %s\n", *promPath)
	}
}

// summary is the report's view of a log, gathered in one replay: kind
// counts, job outcomes, lease flow, the branch and watermark events it
// lists, pool extremes, and the sample columns it plots.
type summary struct {
	counts     [telemetry.KindCount]uint64
	events     int
	lastEventT float64

	// Final job outcomes come from the JobEnd detail strings — one per
	// job, now that OOM kills are job_attempt_end events. Pre-split logs
	// carried kills as job_end "oom-killed"; those are folded into the
	// kill tally, never the outcomes, so a killed-then-abandoned job
	// counts once either way. Resubmissions are JobSubmit events flagged
	// in Aux.
	outcomes  map[string]int
	oomKills  int
	resubmits int

	grantMB, revokeMB, growMB, shrinkMB int64
	grows, shrinks                      int
	lentBy                              map[int]int64 // lender node -> MB granted from it
	borrowedBy                          map[int]int64 // compute node -> MB borrowed for it

	branches []telemetry.Event
	marks    []telemetry.Event // the first maxMarks watermark crossings

	minFree, peakLent int64
	peakQueue         int
	last              telemetry.Sample
	// The plotted columns: sample times, free and lent GB, queue depth,
	// running jobs and busy nodes.
	t, free, lent, queue, running, busy []float64
}

// maxMarks is the number of watermark crossings the report lists.
const maxMarks = 12

func (s *summary) Event(e *telemetry.Event) error {
	s.counts[e.Kind]++
	s.events++
	s.lastEventT = e.T
	switch e.Kind {
	case telemetry.KindJobSubmit:
		if e.Aux == 1 {
			s.resubmits++
		}
	case telemetry.KindJobEnd:
		if e.Detail == "oom-killed" {
			s.oomKills++ // legacy log: kills were job_end before the split
		} else {
			s.outcomes[e.Detail]++
		}
	case telemetry.KindJobAttemptEnd:
		if e.Detail == "oom-killed" {
			s.oomKills++
		}
	case telemetry.KindLeaseGrant:
		s.grantMB += e.MB
		s.lentBy[e.Lender] += e.MB
		s.borrowedBy[e.Node] += e.MB
	case telemetry.KindLeaseRevoke:
		s.revokeMB += e.MB
	case telemetry.KindLeaseAdjust:
		if e.MB >= 0 {
			s.grows++
			s.growMB += e.MB
		} else {
			s.shrinks++
			s.shrinkMB += -e.MB
		}
	case telemetry.KindBranch:
		s.branches = append(s.branches, *e)
	case telemetry.KindPoolWatermark:
		if len(s.marks) < maxMarks {
			s.marks = append(s.marks, *e)
		}
	}
	return nil
}

func (s *summary) Sample(sm *telemetry.Sample) error {
	if len(s.t) == 0 || sm.FreeMB < s.minFree {
		s.minFree = sm.FreeMB
	}
	s.peakLent = max(s.peakLent, sm.LentMB)
	s.peakQueue = max(s.peakQueue, sm.Queue)
	s.t = append(s.t, sm.T)
	s.free = append(s.free, gb(sm.FreeMB))
	s.lent = append(s.lent, gb(sm.LentMB))
	s.queue = append(s.queue, float64(sm.Queue))
	s.running = append(s.running, float64(sm.Running))
	s.busy = append(s.busy, float64(sm.Busy))
	s.last = *sm
	return nil
}

func (s *summary) Close() error { return nil }

// summarize renders the whole observability report for one log.
func summarize(w io.Writer, name string, log *telemetry.Log, width, top int) error {
	s := &summary{outcomes: map[string]int{}, lentBy: map[int]int64{}, borrowedBy: map[int]int64{}}
	if err := log.Replay(s); err != nil {
		return err
	}
	counts := &s.counts
	span := 0.0
	if s.events > 0 {
		span = s.lastEventT
	}
	if len(s.t) > 0 && s.last.T > span {
		span = s.last.T
	}
	fmt.Fprintf(w, "%s: %d events, %d samples, %.0f simulated seconds\n\n",
		name, s.events, len(s.t), span)

	fmt.Fprintln(w, "events by kind")
	for k := telemetry.Kind(0); k < telemetry.KindCount; k++ {
		fmt.Fprintf(w, "  %-15s %8d\n", k.String(), counts[k])
	}

	fmt.Fprintln(w, "\njobs")
	fmt.Fprintf(w, "  submitted        %8d (plus %d restarts)\n",
		int(counts[telemetry.KindJobSubmit])-s.resubmits, s.resubmits)
	for _, oc := range []string{"completed", "timed-out", "abandoned"} {
		if n, ok := s.outcomes[oc]; ok {
			fmt.Fprintf(w, "  %-15s  %8d\n", oc, n)
		}
	}
	if s.oomKills > 0 {
		fmt.Fprintf(w, "  oom kills        %8d (attempts, not terminal outcomes)\n", s.oomKills)
	}
	if counts[telemetry.KindBackfillPlace] > 0 || counts[telemetry.KindBackfillHole] > 0 {
		fmt.Fprintf(w, "  backfilled       %8d (%d reservation holes)\n",
			counts[telemetry.KindBackfillPlace], counts[telemetry.KindBackfillHole])
	}

	if len(s.branches) > 0 {
		// Branch events are emitted on the base run's stream, one per
		// what-if variant: Detail names the variant, Aux is the prefix event
		// count the branch inherited instead of re-simulating, and MB/Node
		// carry the branch's CoW materialisation counters.
		fmt.Fprintln(w, "\nwhat-if branches")
		var savedEvents, nodeCopies, shardThaws int64
		for _, e := range s.branches {
			savedEvents += e.Aux
			nodeCopies += e.MB
			shardThaws += int64(e.Node)
			fmt.Fprintf(w, "  %-15s %10d prefix events inherited, %d node copies, %d shard thaws\n",
				e.Detail, e.Aux, e.MB, e.Node)
		}
		fmt.Fprintf(w, "  total: %d branches shared %d prefix events; CoW paid %d node copies, %d shard thaws\n",
			len(s.branches), savedEvents, nodeCopies, shardThaws)
	}

	fmt.Fprintln(w, "\nlease flow")
	fmt.Fprintf(w, "  granted   %10.1f GB in %d leases from %d lender nodes\n",
		gb(s.grantMB), counts[telemetry.KindLeaseGrant], len(s.lentBy))
	fmt.Fprintf(w, "  revoked   %10.1f GB at teardown\n", gb(s.revokeMB))
	fmt.Fprintf(w, "  resizes   %10d grows (+%.1f GB), %d shrinks (-%.1f GB)\n",
		s.grows, gb(s.growMB), s.shrinks, gb(s.shrinkMB))

	if len(s.marks) > 0 {
		fmt.Fprintln(w, "\npool watermark crossings")
		for _, e := range s.marks {
			fmt.Fprintf(w, "  t=%-10.0f free pool fell to ≤%d%% (%.1f GB free)\n", e.T, e.Aux, gb(e.MB))
		}
		if n := counts[telemetry.KindPoolWatermark]; n > maxMarks {
			fmt.Fprintf(w, "  … and %d more\n", n-maxMarks)
		}
	}

	if len(s.t) > 0 {
		last := &s.last
		fmt.Fprintln(w, "\npool samples")
		fmt.Fprintf(w, "  min free  %10.1f GB   peak lent %10.1f GB   peak queue %d\n",
			gb(s.minFree), gb(s.peakLent), s.peakQueue)
		fmt.Fprintf(w, "  final     %10.1f GB free, %.1f GB lent, %d queued, %d running\n",
			gb(last.FreeMB), gb(last.LentMB), last.Queue, last.Running)

		fmt.Fprintln(w)
		fmt.Fprint(w, textplot.TimeSeries("pool occupancy (GB)", s.t, []textplot.Series{
			{Name: "free", Values: s.free},
			{Name: "lent", Values: s.lent},
		}, width, 12))
		fmt.Fprintln(w)
		fmt.Fprint(w, textplot.TimeSeries("scheduler load", s.t, []textplot.Series{
			{Name: "queue depth", Values: s.queue},
			{Name: "running jobs", Values: s.running},
			{Name: "busy nodes", Values: s.busy},
		}, width, 12))
	}

	if len(s.lentBy) > 0 {
		fmt.Fprintln(w)
		fmt.Fprint(w, textplot.BarChart("top lenders (GB lent out)", topBars(s.lentBy, top), width/2, "%.1f"))
		fmt.Fprintln(w)
		fmt.Fprint(w, textplot.BarChart("top borrowers (GB borrowed)", topBars(s.borrowedBy, top), width/2, "%.1f"))
	}
	return nil
}

// topBars converts a node→MB tally into the n largest bars in GB, ties
// broken by node id so the report is deterministic.
func topBars(m map[int]int64, n int) []textplot.Bar {
	type kv struct {
		node int
		mb   int64
	}
	all := make([]kv, 0, len(m))
	for node, mb := range m {
		all = append(all, kv{node, mb})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].mb != all[j].mb {
			return all[i].mb > all[j].mb
		}
		return all[i].node < all[j].node
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	bars := make([]textplot.Bar, len(all))
	for i, e := range all {
		bars[i] = textplot.Bar{Label: fmt.Sprintf("node %d", e.node), Value: gb(e.mb)}
	}
	return bars
}

func gb(mb int64) float64 { return float64(mb) / 1024 }

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dmpobs: "+format+"\n", args...)
	os.Exit(1)
}
