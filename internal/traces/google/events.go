package google

import "math/rand"

// The 2019 trace records collection lifecycles as event streams; a job may
// be evicted and rescheduled several times before finishing, being killed,
// or failing. The paper keeps only jobs that "finished normally at least
// once" — this file synthesises the event layer so that the filter derives
// from events instead of a flag.

// EventType is a collection lifecycle event kind.
type EventType int

const (
	EvSubmit EventType = iota
	EvSchedule
	EvEvict
	EvFinish
	EvKill
	EvFail
)

func (e EventType) String() string {
	switch e {
	case EvSubmit:
		return "SUBMIT"
	case EvSchedule:
		return "SCHEDULE"
	case EvEvict:
		return "EVICT"
	case EvFinish:
		return "FINISH"
	case EvKill:
		return "KILL"
	case EvFail:
		return "FAIL"
	}
	return "UNKNOWN"
}

// Terminal reports whether the event ends an execution attempt for good.
func (e EventType) Terminal() bool {
	return e == EvFinish || e == EvKill || e == EvFail
}

// Event is one lifecycle record.
type Event struct {
	TimeSec float64
	Type    EventType
}

// FinishedNormally reports whether the collection's event stream contains
// a FINISH — the paper's "finished normally at least once" filter. A
// collection without synthesised events falls back to the FinishedOK flag.
func (c *Collection) FinishedNormally() bool {
	if len(c.Events) == 0 {
		return c.FinishedOK
	}
	for _, ev := range c.Events {
		if ev.Type == EvFinish {
			return true
		}
	}
	return false
}

// Attempts counts the execution attempts (SCHEDULE events).
func (c *Collection) Attempts() int {
	n := 0
	for _, ev := range c.Events {
		if ev.Type == EvSchedule {
			n++
		}
	}
	return n
}

// synthesiseEvents builds a plausible lifecycle: SUBMIT, then one or more
// SCHEDULE attempts, each ending in EVICT (with a reschedule) until a
// terminal FINISH / KILL / FAIL. Low-priority work is evicted and killed
// more often, matching the trace's semantics of best-effort tiers making
// room for production jobs.
func synthesiseEvents(rng *rand.Rand, c *Collection) []Event {
	evictProb := 0.08
	killProb := 0.10
	if c.Priority <= BestEffortBatch {
		evictProb = 0.25
		killProb = 0.15
	}
	t := rng.Float64() * 1e6
	events := []Event{{TimeSec: t, Type: EvSubmit}}
	t += rng.Float64() * 600 // queueing delay
	for attempt := 0; ; attempt++ {
		events = append(events, Event{TimeSec: t, Type: EvSchedule})
		run := c.RuntimeSec * (0.2 + 0.8*rng.Float64())
		if attempt > 3 || rng.Float64() > evictProb {
			// This attempt reaches a terminal state.
			t += c.RuntimeSec
			switch {
			case rng.Float64() < killProb:
				events = append(events, Event{TimeSec: t, Type: EvKill})
			case rng.Float64() < 0.05:
				events = append(events, Event{TimeSec: t, Type: EvFail})
			default:
				events = append(events, Event{TimeSec: t, Type: EvFinish})
			}
			return events
		}
		t += run
		events = append(events, Event{TimeSec: t, Type: EvEvict})
		t += rng.Float64() * 1800 // requeue delay
	}
}
