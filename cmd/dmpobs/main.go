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
		f, err := os.Create(*promPath)
		if err != nil {
			fail("%v", err)
		}
		if err := telemetry.AggregateFromLog(log).WriteText(f); err != nil {
			f.Close()
			fail("prom: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("prom: %v", err)
		}
		fmt.Printf("\nwrote Prometheus aggregates to %s\n", *promPath)
	}
}

// summarize renders the whole observability report for one decoded log.
func summarize(w io.Writer, name string, log *telemetry.DecodedLog, width, top int) error {
	counts := log.Counts()
	span := 0.0
	if n := len(log.Events); n > 0 {
		span = log.Events[n-1].T
	}
	if n := log.Series.Len(); n > 0 && log.Series.T[n-1] > span {
		span = log.Series.T[n-1]
	}
	fmt.Fprintf(w, "%s: %d events, %d samples, %.0f simulated seconds\n\n",
		name, len(log.Events), log.Series.Len(), span)

	fmt.Fprintln(w, "events by kind")
	for k := telemetry.Kind(0); k < telemetry.KindCount; k++ {
		fmt.Fprintf(w, "  %-15s %8d\n", k.String(), counts[k])
	}

	// Final job outcomes come from the JobEnd detail strings — one per job,
	// now that OOM kills are job_attempt_end events. Pre-split logs carried
	// kills as job_end "oom-killed"; those are folded into the kill tally,
	// never the outcomes, so a killed-then-abandoned job counts once either
	// way. Resubmissions are JobSubmit events flagged in Aux.
	outcomes := map[string]int{}
	oomKills := 0
	resubmits := 0
	var grantMB, revokeMB, growMB, shrinkMB int64
	var grows, shrinks int
	lentBy := map[int]int64{}     // lender node -> MB granted from it
	borrowedBy := map[int]int64{} // compute node -> MB borrowed for it
	for i := range log.Events {
		e := &log.Events[i]
		switch e.Kind {
		case telemetry.KindJobSubmit:
			if e.Aux == 1 {
				resubmits++
			}
		case telemetry.KindJobEnd:
			if e.Detail == "oom-killed" {
				oomKills++ // legacy log: kills were job_end before the split
			} else {
				outcomes[e.Detail]++
			}
		case telemetry.KindJobAttemptEnd:
			if e.Detail == "oom-killed" {
				oomKills++
			}
		case telemetry.KindLeaseGrant:
			grantMB += e.MB
			lentBy[e.Lender] += e.MB
			borrowedBy[e.Node] += e.MB
		case telemetry.KindLeaseRevoke:
			revokeMB += e.MB
		case telemetry.KindLeaseAdjust:
			if e.MB >= 0 {
				grows++
				growMB += e.MB
			} else {
				shrinks++
				shrinkMB += -e.MB
			}
		}
	}

	fmt.Fprintln(w, "\njobs")
	fmt.Fprintf(w, "  submitted        %8d (plus %d restarts)\n",
		int(counts[telemetry.KindJobSubmit])-resubmits, resubmits)
	for _, oc := range []string{"completed", "timed-out", "abandoned"} {
		if n, ok := outcomes[oc]; ok {
			fmt.Fprintf(w, "  %-15s  %8d\n", oc, n)
		}
	}
	if oomKills > 0 {
		fmt.Fprintf(w, "  oom kills        %8d (attempts, not terminal outcomes)\n", oomKills)
	}
	if counts[telemetry.KindBackfillPlace] > 0 || counts[telemetry.KindBackfillHole] > 0 {
		fmt.Fprintf(w, "  backfilled       %8d (%d reservation holes)\n",
			counts[telemetry.KindBackfillPlace], counts[telemetry.KindBackfillHole])
	}

	if counts[telemetry.KindBranch] > 0 {
		// Branch events are emitted on the base run's stream, one per
		// what-if variant: Detail names the variant, Aux is the prefix event
		// count the branch inherited instead of re-simulating, and MB/Node
		// carry the branch's CoW materialisation counters.
		fmt.Fprintln(w, "\nwhat-if branches")
		var branches int
		var savedEvents, nodeCopies, shardThaws int64
		for i := range log.Events {
			e := &log.Events[i]
			if e.Kind != telemetry.KindBranch {
				continue
			}
			branches++
			savedEvents += e.Aux
			nodeCopies += e.MB
			shardThaws += int64(e.Node)
			fmt.Fprintf(w, "  %-15s %10d prefix events inherited, %d node copies, %d shard thaws\n",
				e.Detail, e.Aux, e.MB, e.Node)
		}
		fmt.Fprintf(w, "  total: %d branches shared %d prefix events; CoW paid %d node copies, %d shard thaws\n",
			branches, savedEvents, nodeCopies, shardThaws)
	}

	fmt.Fprintln(w, "\nlease flow")
	fmt.Fprintf(w, "  granted   %10.1f GB in %d leases from %d lender nodes\n",
		gb(grantMB), counts[telemetry.KindLeaseGrant], len(lentBy))
	fmt.Fprintf(w, "  revoked   %10.1f GB at teardown\n", gb(revokeMB))
	fmt.Fprintf(w, "  resizes   %10d grows (+%.1f GB), %d shrinks (-%.1f GB)\n",
		grows, gb(growMB), shrinks, gb(shrinkMB))

	if counts[telemetry.KindPoolWatermark] > 0 {
		fmt.Fprintln(w, "\npool watermark crossings")
		const maxMarks = 12
		shown := 0
		for i := range log.Events {
			e := &log.Events[i]
			if e.Kind != telemetry.KindPoolWatermark {
				continue
			}
			if shown == maxMarks {
				fmt.Fprintf(w, "  … and %d more\n", counts[telemetry.KindPoolWatermark]-maxMarks)
				break
			}
			shown++
			fmt.Fprintf(w, "  t=%-10.0f free pool fell to ≤%d%% (%.1f GB free)\n", e.T, e.Aux, gb(e.MB))
		}
	}

	if s := &log.Series; s.Len() > 0 {
		last := s.At(s.Len() - 1)
		fmt.Fprintln(w, "\npool samples")
		fmt.Fprintf(w, "  min free  %10.1f GB   peak lent %10.1f GB   peak queue %d\n",
			gb(s.MinFreeMB()), gb(s.PeakLentMB()), s.PeakQueue())
		fmt.Fprintf(w, "  final     %10.1f GB free, %.1f GB lent, %d queued, %d running\n",
			gb(last.FreeMB), gb(last.LentMB), last.Queue, last.Running)

		fmt.Fprintln(w)
		fmt.Fprint(w, textplot.TimeSeries("pool occupancy (GB)", s.T, []textplot.Series{
			{Name: "free", Values: toF64(s.FreeMB, 1.0/1024)},
			{Name: "lent", Values: toF64(s.LentMB, 1.0/1024)},
		}, width, 12))
		fmt.Fprintln(w)
		fmt.Fprint(w, textplot.TimeSeries("scheduler load", s.T, []textplot.Series{
			{Name: "queue depth", Values: toF64i32(s.Queue)},
			{Name: "running jobs", Values: toF64i32(s.Running)},
			{Name: "busy nodes", Values: toF64i32(s.Busy)},
		}, width, 12))
	}

	if len(lentBy) > 0 {
		fmt.Fprintln(w)
		fmt.Fprint(w, textplot.BarChart("top lenders (GB lent out)", topBars(lentBy, top), width/2, "%.1f"))
		fmt.Fprintln(w)
		fmt.Fprint(w, textplot.BarChart("top borrowers (GB borrowed)", topBars(borrowedBy, top), width/2, "%.1f"))
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

func toF64(v []int64, scale float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x) * scale
	}
	return out
}

func toF64i32(v []int32) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dmpobs: "+format+"\n", args...)
	os.Exit(1)
}
