package hwtwbg

import (
	"fmt"
	"time"
)

// EventKind classifies a deadlock-resolution event.
type EventKind uint8

const (
	// EventVictim: a transaction was aborted to break a deadlock.
	EventVictim EventKind = iota
	// EventReposition: a deadlock was resolved by a TDR-2 queue
	// repositioning — nobody was aborted.
	EventReposition
	// EventSalvage: a selected victim was rescued at Step 3 because an
	// earlier abort had already granted its request.
	EventSalvage
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventVictim:
		return "victim"
	case EventReposition:
		return "reposition"
	case EventSalvage:
		return "salvage"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one recorded deadlock-resolution action.
type Event struct {
	Time     time.Time
	Kind     EventKind
	Txn      TxnID      // the victim, salvaged txn, or TDR-2 junction
	Resource ResourceID // TDR-2 only: the repositioned queue
}

// String renders "victim T7" or "reposition R2 at junction T3".
func (e Event) String() string {
	switch e.Kind {
	case EventReposition:
		return fmt.Sprintf("reposition %s at junction %v", string(e.Resource), e.Txn)
	default:
		return fmt.Sprintf("%v %v", e.Kind, e.Txn)
	}
}

// ring is a fixed-capacity ring buffer retaining the most recent
// entries. A zero-capacity ring records nothing (HistorySize < 0). The
// manager guards its rings with mu; the type itself is not
// goroutine-safe.
type ring[T any] struct {
	buf   []T
	next  int
	total int
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, capacity)}
}

func (h *ring[T]) add(e T) {
	if len(h.buf) == 0 {
		return
	}
	h.buf[h.next] = e
	h.next = (h.next + 1) % len(h.buf)
	h.total++
}

// items returns the retained entries, oldest first.
func (h *ring[T]) items() []T {
	if len(h.buf) == 0 {
		return nil
	}
	n := h.total
	if n > len(h.buf) {
		n = len(h.buf)
	}
	out := make([]T, 0, n)
	start := (h.next - n + len(h.buf)) % len(h.buf)
	for i := 0; i < n; i++ {
		out = append(out, h.buf[(start+i)%len(h.buf)])
	}
	return out
}

// last returns the most recently added entry, if any.
func (h *ring[T]) last() (T, bool) {
	var zero T
	if len(h.buf) == 0 || h.total == 0 {
		return zero, false
	}
	return h.buf[(h.next-1+len(h.buf))%len(h.buf)], true
}

// historyRing is the deadlock-event instantiation of ring.
type historyRing = ring[Event]

func newHistoryRing(capacity int) *historyRing { return newRing[Event](capacity) }

// History returns the most recent deadlock-resolution events (up to
// Options.HistorySize, default 128), oldest first, and the total number
// of events ever recorded (which may exceed the retained window).
func (m *Manager) History() (events []Event, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.history.items(), m.history.total
}

// Activations returns the most recent detector activation reports (up
// to Options.HistorySize, default 128), oldest first, and the total
// number of activations ever run. Each report decomposes one
// activation into its phases; see ActivationReport.
func (m *Manager) Activations() (reports []ActivationReport, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.activations.items(), m.activations.total
}

// LastActivation returns the most recent detector activation report and
// whether any activation has been recorded (false when none has run, or
// HistorySize < 0 disabled the ring).
func (m *Manager) LastActivation() (ActivationReport, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.activations.last()
}
