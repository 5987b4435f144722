// Package limits implements resource governance: a process-wide Governor
// tracking bytes charged by every live execution, and per-query Budgets
// that convert overage into a structured, catchable error instead of an
// OOM kill.
//
// Charging is cooperative and approximate: the engine's hot allocation
// sites (store node growth during lazy materialization, FLWOR gather
// rounds, streamexec window buffers, materialized result buffers) charge an estimate of the bytes they retain and
// discharge what they provably release (window closes, round ends).
// Sites whose allocations escape into query results charge without
// discharging — the budget is an upper bound on retained bytes, released
// wholesale when the query finishes (Budget.ReleaseAll). The point is not
// byte-exact accounting but a cheap, monotone signal that trips well
// before the process is in real memory trouble.
//
// All methods are nil-receiver safe so un-budgeted executions pay a single
// pointer test per charge site.
package limits

import (
	"fmt"
	"sync/atomic"
)

// ErrCode is the structured XQuery error code a budget overage surfaces
// as. It follows the engine's err:XXXXnnnn convention so clients and the
// service error classifier treat it like any other evaluation error.
const ErrCode = "XQGO0001"

// BudgetError reports a per-query memory budget overage. It formats like
// the engine's xdm errors ("err:XQGO0001: ...") and carries the trace id
// of the offending execution when one was attached.
type BudgetError struct {
	Limit     int64  // configured budget in bytes
	Requested int64  // size of the charge that tripped
	Used      int64  // tracked bytes at the time of the trip
	TraceID   string // execution trace id, "" when tracing is off
}

func (e *BudgetError) Error() string {
	msg := fmt.Sprintf("err:%s: memory budget exceeded: query holds %d tracked bytes (+%d requested) over the %d byte limit",
		ErrCode, e.Used, e.Requested, e.Limit)
	if e.TraceID != "" {
		msg += " [trace " + e.TraceID + "]"
	}
	return msg
}

// Code returns the structured error code, mirroring xdm.Error.
func (e *BudgetError) Code() string { return ErrCode }

// Governor is the process-wide ledger: every Budget created against it
// adds its charges here, so the admission path can compare live tracked
// bytes against the process soft cap and shed load before executing.
type Governor struct {
	soft atomic.Int64 // process soft cap in bytes; 0 = unlimited
	used atomic.Int64 // live tracked bytes across all attached budgets
	shed atomic.Int64 // admissions rejected because the cap was near
}

// NewGovernor returns a governor with the given process soft cap in bytes
// (0 = unlimited). The caller decides whether to also wire the cap into
// the Go runtime (debug.SetMemoryLimit) — the governor itself never
// touches process-global state, so tests can create as many as they like.
func NewGovernor(softLimitBytes int64) *Governor {
	g := &Governor{}
	g.soft.Store(softLimitBytes)
	return g
}

// SetSoftLimit replaces the process soft cap (0 = unlimited).
func (g *Governor) SetSoftLimit(n int64) {
	if g != nil {
		g.soft.Store(n)
	}
}

// SoftLimit returns the configured process soft cap, 0 when unlimited.
func (g *Governor) SoftLimit() int64 {
	if g == nil {
		return 0
	}
	return g.soft.Load()
}

// InUse returns live tracked bytes across all attached budgets.
func (g *Governor) InUse() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// shedNum/shedDen: admission sheds when tracked bytes exceed 4/5 of the
// soft cap, leaving headroom for the queries already running to finish.
const (
	shedNum = 4
	shedDen = 5
)

// Overloaded reports whether tracked bytes are near the soft cap —
// the admission path rejects new work (503) while this holds.
func (g *Governor) Overloaded() bool {
	if g == nil {
		return false
	}
	soft := g.soft.Load()
	return soft > 0 && g.used.Load() >= soft/shedDen*shedNum
}

// NoteShed counts one admission rejected by the overload check.
func (g *Governor) NoteShed() {
	if g != nil {
		g.shed.Add(1)
	}
}

// Sheds returns the number of admissions rejected by the overload check.
func (g *Governor) Sheds() int64 {
	if g == nil {
		return 0
	}
	return g.shed.Load()
}

// Governed creates a budget with the given per-query cap charging against
// this governor.
func (g *Governor) Governed(maxBytes int64) *Budget { return NewBudget(maxBytes, g) }

// Budget tracks one execution's bytes against a per-query cap and, when
// attached to a Governor, against the process soft cap. Safe for
// concurrent use (morsel workers charge from many goroutines).
type Budget struct {
	max     int64 // per-query cap in bytes; 0 = unlimited (track only)
	gov     *Governor
	traceID atomic.Pointer[string]
	used    atomic.Int64
	peak    atomic.Int64
	trips   atomic.Int64
}

// NewBudget returns a budget with the given per-query cap in bytes
// (0 = track without enforcing) charging against gov (nil = standalone).
func NewBudget(maxBytes int64, gov *Governor) *Budget {
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &Budget{max: maxBytes, gov: gov}
}

// SetTraceID attaches the execution's trace id so budget errors carry it.
func (b *Budget) SetTraceID(id string) {
	if b != nil && id != "" {
		b.traceID.Store(&id)
	}
}

// Max returns the per-query cap, 0 when tracking only.
func (b *Budget) Max() int64 {
	if b == nil {
		return 0
	}
	return b.max
}

// Used returns live tracked bytes.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Peak returns the high-water mark of tracked bytes.
func (b *Budget) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

// Trips returns how many charges exceeded the cap.
func (b *Budget) Trips() int64 {
	if b == nil {
		return 0
	}
	return b.trips.Load()
}

// Charge adds n tracked bytes. When the total exceeds the per-query cap
// it returns a *BudgetError; the charge stays on the books (the allocation
// it describes typically already happened) until Discharge or ReleaseAll.
func (b *Budget) Charge(n int64) error {
	if b == nil || n <= 0 {
		return nil
	}
	used := b.used.Add(n)
	for {
		p := b.peak.Load()
		if used <= p || b.peak.CompareAndSwap(p, used) {
			break
		}
	}
	if b.gov != nil {
		b.gov.used.Add(n)
	}
	if b.max > 0 && used > b.max {
		b.trips.Add(1)
		return b.err(n, used)
	}
	return nil
}

// Discharge returns n tracked bytes — call when a charged allocation is
// provably released (window close, gather-round end).
func (b *Budget) Discharge(n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.used.Add(-n)
	if b.gov != nil {
		b.gov.used.Add(-n)
	}
}

// ReleaseAll returns every outstanding tracked byte to the governor —
// called exactly once when the execution finishes, however it finishes.
// The budget remains readable (Peak, Trips) but must not be charged again.
func (b *Budget) ReleaseAll() {
	if b == nil {
		return
	}
	used := b.used.Swap(0)
	if used != 0 && b.gov != nil {
		b.gov.used.Add(-used)
	}
}

func (b *Budget) err(requested, used int64) *BudgetError {
	e := &BudgetError{Limit: b.max, Requested: requested, Used: used}
	if p := b.traceID.Load(); p != nil {
		e.TraceID = *p
	}
	return e
}
