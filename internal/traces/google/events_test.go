package google

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventTypeStrings(t *testing.T) {
	for ev, want := range map[EventType]string{
		EvSubmit: "SUBMIT", EvSchedule: "SCHEDULE", EvEvict: "EVICT",
		EvFinish: "FINISH", EvKill: "KILL", EvFail: "FAIL",
	} {
		if ev.String() != want {
			t.Fatalf("%d.String() = %q", ev, ev.String())
		}
	}
	if EventType(99).String() != "UNKNOWN" {
		t.Fatal("unknown type not handled")
	}
	if !EvFinish.Terminal() || !EvKill.Terminal() || !EvFail.Terminal() {
		t.Fatal("terminal classification broken")
	}
	if EvSubmit.Terminal() || EvEvict.Terminal() || EvSchedule.Terminal() {
		t.Fatal("non-terminal classified terminal")
	}
}

func TestGeneratedEventsWellFormed(t *testing.T) {
	d := Generate(rand.New(rand.NewSource(21)), 2000)
	killed, finished, evicted := 0, 0, 0
	for i := range d.Collections {
		c := &d.Collections[i]
		if !ValidateEvents(c.Events) {
			t.Fatalf("collection %d: malformed events %v", c.ID, c.Events)
		}
		if c.FinishedOK != c.FinishedNormally() {
			t.Fatalf("collection %d: flag/event disagreement", c.ID)
		}
		if c.Attempts() < 1 {
			t.Fatalf("collection %d: no attempts", c.ID)
		}
		last := c.Events[len(c.Events)-1].Type
		switch last {
		case EvFinish:
			finished++
		case EvKill, EvFail:
			killed++
		}
		if c.Attempts() > 1 {
			evicted++
		}
	}
	if finished == 0 || killed == 0 || evicted == 0 {
		t.Fatalf("event diversity missing: finished=%d killed=%d evicted=%d", finished, killed, evicted)
	}
}

func TestBestEffortEvictedMoreThanProduction(t *testing.T) {
	d := Generate(rand.New(rand.NewSource(22)), 6000)
	attempts := map[Priority][2]int{} // [collections, attempts]
	for i := range d.Collections {
		c := &d.Collections[i]
		v := attempts[c.Priority]
		v[0]++
		v[1] += c.Attempts()
		attempts[c.Priority] = v
	}
	be := attempts[BestEffortBatch]
	prod := attempts[Production]
	if be[0] == 0 || prod[0] == 0 {
		t.Skip("tier missing at this seed")
	}
	beMean := float64(be[1]) / float64(be[0])
	prodMean := float64(prod[1]) / float64(prod[0])
	if beMean <= prodMean {
		t.Fatalf("best-effort mean attempts %g not above production %g", beMean, prodMean)
	}
}

func TestFilterUsesEvents(t *testing.T) {
	// A batch collection whose stream ends in KILL with no FINISH must
	// be filtered out even if the legacy flag says otherwise.
	c := Collection{
		ID: 1, Priority: BestEffortBatch, SchedClass: 0, FinishedOK: true,
		RuntimeSec: 600, WindowMax: []float64{0.001}, WindowAvg: []float64{0.001},
		Events: []Event{
			{TimeSec: 0, Type: EvSubmit},
			{TimeSec: 10, Type: EvSchedule},
			{TimeSec: 700, Type: EvKill},
		},
	}
	d := &Dataset{Collections: []Collection{c}}
	if got := d.FilterBatch(); len(got) != 0 {
		t.Fatal("killed-only collection survived the filter")
	}
	// Flag fallback when no events exist.
	c.Events = nil
	d = &Dataset{Collections: []Collection{c}}
	if got := d.FilterBatch(); len(got) != 1 {
		t.Fatal("event-less collection must fall back to the flag")
	}
}

func TestValidateEventsRejections(t *testing.T) {
	bad := [][]Event{
		nil,
		{{0, EvSubmit}},
		{{0, EvSchedule}, {1, EvFinish}, {2, EvFinish}},                // no submit
		{{0, EvSubmit}, {1, EvSchedule}, {2, EvEvict}},                 // no terminal
		{{0, EvSubmit}, {1, EvFinish}, {2, EvFinish}},                  // finish while not running
		{{0, EvSubmit}, {1, EvSchedule}, {2, EvSchedule}, {3, EvKill}}, // double schedule
		{{5, EvSubmit}, {1, EvSchedule}, {6, EvFinish}},                // unordered
	}
	for i, evs := range bad {
		if ValidateEvents(evs) {
			t.Errorf("case %d accepted: %v", i, evs)
		}
	}
}

// Property: synthesised event streams are always well-formed.
func TestQuickSynthesisedEventsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Collection{Priority: samplePriority(rng), RuntimeSec: 600 + rng.Float64()*86400}
		return ValidateEvents(synthesiseEvents(rng, &c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// ValidateEvents checks an event stream is well-formed: time-ordered,
// starting with SUBMIT, alternating SCHEDULE/(EVICT|terminal), ending with
// a terminal event.
func ValidateEvents(events []Event) bool {
	if len(events) < 3 {
		return false
	}
	if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].TimeSec < events[j].TimeSec }) {
		return false
	}
	if events[0].Type != EvSubmit {
		return false
	}
	if !events[len(events)-1].Type.Terminal() {
		return false
	}
	running := false
	for _, ev := range events[1:] {
		switch ev.Type {
		case EvSchedule:
			if running {
				return false
			}
			running = true
		case EvEvict:
			if !running {
				return false
			}
			running = false
		case EvFinish, EvKill, EvFail:
			if !running {
				return false
			}
			running = false
		case EvSubmit:
			return false
		}
	}
	return !running
}
