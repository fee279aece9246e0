//! The trace collector ring, the flight recorder, and the SLO burn-rate
//! monitor.
//!
//! **Collector** — every trace starts with [`TraceCollector::start`] and
//! ends with [`ActiveTrace::finish`], which seals the record, lands it in a
//! fixed ring of slots, offers it to the slow-query log and freezes an
//! incident when it carries an error. Writers claim a slot with one relaxed
//! `fetch_add` on the head index and swap the record in under that slot's
//! own mutex, so concurrent writers only ever contend when they hash to the
//! same slot — there is no global lock and no allocation beyond the record
//! itself (already built). Head sampling (`SET trace_sample = 1/N`, default
//! 1-in-16) decides at statement start how deep a statement records;
//! tail-based keep means statements that error always leave *something*
//! behind (a root-only record when the statement was not recording).
//!
//! **Flight recorder** — on anomaly (statement error, breaker transition,
//! reshard fence timeout, SLO breach, injected fault) the current ring is
//! frozen — `Arc` clones, not copies — into a bounded incident store
//! queryable via `SHOW INCIDENTS`, so the traces leading up to a failure
//! survive ring wraparound.
//!
//! **SLO monitor** — per-statement-class objectives
//! (`SET slo_read_p99_ms`, `SET slo_error_pct`) evaluated over a fast
//! (10 s) and a slow (60 s) window of per-second buckets, the standard
//! multi-window burn-rate scheme: burn = (bad fraction) / (budget
//! fraction), breach when both windows burn ≥ 1×. Unarmed cost is two
//! relaxed loads per statement.

use super::registry::Counter;
use super::slowlog::SlowQueryLog;
use super::span::{SpanRecorder, SpanScope, TraceRecord, Verdicts, ROOT};
use super::trace::Stage;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default head-sampling period: 1-in-16 statements record spans.
pub const DEFAULT_TRACE_SAMPLE_PERIOD: u32 = 16;
/// Trace ring capacity.
const TRACE_RING_SLOTS: usize = 256;
/// Bounded incident store capacity (oldest evicted first).
const INCIDENT_CAPACITY: usize = 64;

/// What froze the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    StatementError,
    InjectedFault,
    BreakerTransition,
    ReshardFenceTimeout,
    SloBreach,
}

impl IncidentKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            IncidentKind::StatementError => "statement_error",
            IncidentKind::InjectedFault => "injected_fault",
            IncidentKind::BreakerTransition => "breaker_transition",
            IncidentKind::ReshardFenceTimeout => "reshard_fence_timeout",
            IncidentKind::SloBreach => "slo_breach",
        }
    }

    /// Classify a failure from its message: statement errors, errors of
    /// branch spans that did not fail their statement (XA phase-2 laggards)
    /// and failed reshard jobs all arrive as text.
    fn classify(msg: &str) -> IncidentKind {
        if msg.contains("injected fault") || msg.contains("fault on '") {
            IncidentKind::InjectedFault
        } else if msg.contains("fence") || msg.contains("snapshot barrier") {
            IncidentKind::ReshardFenceTimeout
        } else {
            IncidentKind::StatementError
        }
    }
}

/// One frozen anomaly: what happened, which trace (if any) carried it, and
/// the span ring as it stood at that moment.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Monotonic incident sequence (1-based).
    pub seq: u64,
    pub kind: IncidentKind,
    pub detail: String,
    /// The trace that tripped the incident, when one was recorded.
    pub trace_id: Option<u64>,
    /// Ring snapshot at freeze time, newest-first.
    pub frozen: Vec<Arc<TraceRecord>>,
}

/// Lock-free-headed ring of recent traces plus the incident store.
pub struct TraceCollector {
    /// `SET trace_sample`: keep spans for 1-in-N statements; 0 = off.
    sample_period: AtomicU32,
    next_trace_id: AtomicU64,
    head: AtomicUsize,
    slots: Vec<Mutex<Option<Arc<TraceRecord>>>>,
    /// Traces kept in the ring so far (including since-overwritten ones).
    kept_total: AtomicU64,
    incident_seq: AtomicU64,
    incidents: Mutex<VecDeque<Incident>>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector {
            sample_period: AtomicU32::new(DEFAULT_TRACE_SAMPLE_PERIOD),
            next_trace_id: AtomicU64::new(0),
            head: AtomicUsize::new(0),
            slots: (0..TRACE_RING_SLOTS).map(|_| Mutex::new(None)).collect(),
            kept_total: AtomicU64::new(0),
            incident_seq: AtomicU64::new(0),
            incidents: Mutex::new(VecDeque::new()),
        }
    }
}

impl TraceCollector {
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// Is span collection enabled at all? One relaxed load.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sample_period.load(Ordering::Relaxed) != 0
    }

    pub fn sample_period(&self) -> u32 {
        self.sample_period.load(Ordering::Relaxed)
    }

    /// `0` disables tracing; `n` keeps spans for 1-in-n statements.
    pub fn set_sample_period(&self, period: u32) {
        self.sample_period.store(period, Ordering::Relaxed);
    }

    /// Start recording one statement or background job: mint its trace id
    /// and open its root span, timed from `epoch`. `head` marks a
    /// head-sampled trace: storage internals report into it and the ring
    /// keeps it whatever it shows.
    pub fn start(
        self: &Arc<Self>,
        origin: &str,
        root: (&'static str, String),
        sql: String,
        epoch: Instant,
        head: bool,
    ) -> ActiveTrace {
        let trace_id = self.next_trace_id.fetch_add(1, Ordering::Relaxed) + 1;
        ActiveTrace {
            collector: Arc::clone(self),
            root: SpanScope {
                recorder: SpanRecorder::new(trace_id, epoch, root),
                parent: ROOT,
                probe: head,
            },
            origin: origin.to_string(),
            sql,
            mark_us: 0,
            verdicts: Verdicts::default(),
        }
    }

    /// Land a finished trace in the ring.
    fn keep(&self, record: Arc<TraceRecord>) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[slot].lock() = Some(record);
        self.kept_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Traces currently in the ring, newest-first.
    pub fn traces(&self) -> Vec<Arc<TraceRecord>> {
        let mut out: Vec<Arc<TraceRecord>> =
            self.slots.iter().filter_map(|s| s.lock().clone()).collect();
        out.sort_by_key(|t| std::cmp::Reverse(t.trace_id));
        out
    }

    /// Look a trace up by id (`SHOW TRACE <id>`).
    pub fn trace(&self, id: u64) -> Option<Arc<TraceRecord>> {
        self.slots
            .iter()
            .filter_map(|s| s.lock().clone())
            .find(|t| t.trace_id == id)
    }

    /// Traces kept so far, including ones the ring has since overwritten.
    pub fn kept_total(&self) -> u64 {
        self.kept_total.load(Ordering::Relaxed)
    }

    /// The `/traces` endpoint body: a JSON array of the ring, newest-first.
    pub fn traces_json(&self) -> String {
        let mut out = String::from("[");
        for (i, t) in self.traces().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            t.write_json(&mut out);
        }
        out.push(']');
        out
    }

    /// Freeze the ring into the incident store. Returns the incident seq.
    pub fn record_incident(
        &self,
        kind: IncidentKind,
        detail: String,
        trace_id: Option<u64>,
    ) -> u64 {
        let seq = self.incident_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let incident = Incident {
            seq,
            kind,
            detail,
            trace_id,
            frozen: self.traces(),
        };
        let mut incidents = self.incidents.lock();
        while incidents.len() >= INCIDENT_CAPACITY {
            incidents.pop_front();
        }
        incidents.push_back(incident);
        seq
    }

    /// Incidents newest-first (`SHOW INCIDENTS`).
    pub fn incidents(&self) -> Vec<Incident> {
        self.incidents.lock().iter().rev().cloned().collect()
    }

    /// Incidents recorded so far (including evicted ones).
    pub fn incidents_total(&self) -> u64 {
        self.incident_seq.load(Ordering::Relaxed)
    }
}

/// A trace being recorded: where its spans go, where its last kernel stage
/// ended, and the verdicts that will ride on the record.
pub struct ActiveTrace {
    collector: Arc<TraceCollector>,
    /// The scope of work directly under the root span; its `probe` flag
    /// marks a head-sampled trace.
    root: SpanScope,
    origin: String,
    sql: String,
    /// Where the last stage ended, µs from the epoch; the next one starts
    /// here, so a stage boundary costs one clock read.
    mark_us: u64,
    pub verdicts: Verdicts,
}

impl ActiveTrace {
    /// The scope work directly under the root records into.
    pub fn scope(&self) -> SpanScope {
        self.root.clone()
    }

    /// Close `stage` now: it ran from where the previous stage ended.
    pub fn stage(&mut self, stage: Stage) {
        self.mark_us = self.root.recorder.lap(ROOT, stage.as_str(), self.mark_us);
    }

    /// Open `stage` where the previous one ended; what runs inside records
    /// into the returned scope. [`end_stage`](Self::end_stage) closes it — or
    /// sealing does, for the merge stage of a streamed statement.
    pub fn begin_stage(&self, stage: Stage) -> SpanScope {
        let recorder = &self.root.recorder;
        SpanScope {
            parent: recorder.begin_from(ROOT, stage.as_str(), self.mark_us),
            ..self.scope()
        }
    }

    pub fn end_stage(&mut self, stage: &SpanScope, error: Option<String>) {
        self.mark_us = stage.recorder.finish(stage.parent, None, error);
    }

    /// Seal the record and hand it to everything that reads it: the slow
    /// log, when one is given and the statement crossed its threshold; the
    /// ring, when the trace was head-sampled, the slow log took it, or the
    /// statement or any of its spans failed; in that last case the flight
    /// recorder too (a phase-2 branch failure does not fail its COMMIT —
    /// recovery re-drives it — but is still an anomaly worth freezing).
    /// `SET trace_sample = off` keeps the ring and the flight recorder empty.
    pub fn finish(
        self,
        error: Option<String>,
        slow_log: Option<&SlowQueryLog>,
    ) -> Arc<TraceRecord> {
        let recorder = &self.root.recorder;
        let record = Arc::new(recorder.seal(self.origin, self.sql, error, self.verdicts));
        let slow = slow_log.is_some_and(|log| log.record(&record));
        let failed_span = || record.spans.iter().find_map(|s| s.error.as_ref());
        let failure = record.error.as_ref().or_else(failed_span);
        let collector = &self.collector;
        if collector.enabled() && (self.root.probe || slow || failure.is_some()) {
            collector.keep(Arc::clone(&record));
            if let Some(msg) = failure {
                let kind = IncidentKind::classify(msg);
                collector.record_incident(kind, msg.clone(), Some(record.trace_id));
            }
        }
        record
    }
}

/// Fast window length (seconds): catches sharp regressions quickly.
const SLO_FAST_WINDOW_SECS: u64 = 10;
/// Slow window length (seconds): confirms the burn is sustained.
const SLO_SLOW_WINDOW_SECS: u64 = 60;
/// Latency objective budget: up to 1% of reads may exceed the p99 target
/// (that is what "p99" means as an objective).
const LATENCY_BUDGET_X10000: u64 = 100; // 1% in 1/10000 units
/// Minimum fast-window samples before a breach can fire (avoids a single
/// slow statement at startup tripping the recorder).
const SLO_MIN_SAMPLES: u64 = 5;

#[derive(Clone, Copy, Default)]
struct SloBucket {
    sec: u64,
    total: u64,
    /// Reads that exceeded the latency objective.
    slow: u64,
    errors: u64,
}

/// Multi-window burn-rate monitor over per-statement-class objectives.
pub struct SloMonitor {
    /// Read-latency objective in µs; 0 = unarmed.
    read_p99_us: AtomicU64,
    /// Error-rate objective in 1/100 percent (1% → 100); 0 = unarmed.
    error_pct_x100: AtomicU64,
    epoch: Instant,
    /// One bucket per second, ring over the slow window.
    buckets: Mutex<[SloBucket; SLO_SLOW_WINDOW_SECS as usize]>,
    /// Published burn rates ×100 (1.0× burn = 100), for the gauges.
    fast_burn_x100: AtomicU64,
    slow_burn_x100: AtomicU64,
    /// Latched while in breach so one episode records one incident.
    in_breach: AtomicBool,
    breaches: Arc<Counter>,
}

impl SloMonitor {
    pub fn new(breaches: Arc<Counter>) -> Self {
        SloMonitor {
            read_p99_us: AtomicU64::new(0),
            error_pct_x100: AtomicU64::new(0),
            epoch: Instant::now(),
            buckets: Mutex::new([SloBucket::default(); SLO_SLOW_WINDOW_SECS as usize]),
            fast_burn_x100: AtomicU64::new(0),
            slow_burn_x100: AtomicU64::new(0),
            in_breach: AtomicBool::new(false),
            breaches,
        }
    }

    /// Is any objective armed? Two relaxed loads — the whole per-statement
    /// cost when SLOs are not in use.
    #[inline]
    pub fn armed(&self) -> bool {
        self.read_p99_us.load(Ordering::Relaxed) != 0
            || self.error_pct_x100.load(Ordering::Relaxed) != 0
    }

    pub fn set_read_p99_ms(&self, ms: u64) {
        self.read_p99_us.store(ms * 1000, Ordering::Relaxed);
    }

    pub fn read_p99_ms(&self) -> u64 {
        self.read_p99_us.load(Ordering::Relaxed) / 1000
    }

    pub fn set_error_pct_x100(&self, pct_x100: u64) {
        self.error_pct_x100.store(pct_x100, Ordering::Relaxed);
    }

    pub fn error_pct_x100(&self) -> u64 {
        self.error_pct_x100.load(Ordering::Relaxed)
    }

    /// Current burn rates ×100 (fast, slow) — the gauges read these.
    pub fn burn_rates_x100(&self) -> (u64, u64) {
        (
            self.fast_burn_x100.load(Ordering::Relaxed),
            self.slow_burn_x100.load(Ordering::Relaxed),
        )
    }

    pub fn breaches_total(&self) -> u64 {
        self.breaches.get()
    }

    /// Record one finished statement. Returns a breach description when
    /// this observation *newly* pushed both windows over 1× burn — the
    /// caller freezes the flight recorder with it.
    pub fn observe(&self, is_read: bool, total_us: u64, is_err: bool) -> Option<String> {
        let p99_us = self.read_p99_us.load(Ordering::Relaxed);
        let err_budget_x100 = self.error_pct_x100.load(Ordering::Relaxed);
        if p99_us == 0 && err_budget_x100 == 0 {
            return None;
        }
        let now_sec = self.epoch.elapsed().as_secs();
        let slow = is_read && p99_us != 0 && total_us > p99_us;
        let (fast, slow_win) = {
            let mut buckets = self.buckets.lock();
            let b = &mut buckets[(now_sec % SLO_SLOW_WINDOW_SECS) as usize];
            if b.sec != now_sec {
                *b = SloBucket {
                    sec: now_sec,
                    ..SloBucket::default()
                };
            }
            b.total += 1;
            if slow {
                b.slow += 1;
            }
            if is_err {
                b.errors += 1;
            }
            (
                window_sum(&buckets[..], now_sec, SLO_FAST_WINDOW_SECS),
                window_sum(&buckets[..], now_sec, SLO_SLOW_WINDOW_SECS),
            )
        };
        let fast_burn = burn_x100(&fast, p99_us != 0, err_budget_x100);
        let slow_burn = burn_x100(&slow_win, p99_us != 0, err_budget_x100);
        self.fast_burn_x100.store(fast_burn, Ordering::Relaxed);
        self.slow_burn_x100.store(slow_burn, Ordering::Relaxed);
        if fast_burn >= 100 && slow_burn >= 100 && fast.total >= SLO_MIN_SAMPLES {
            if !self.in_breach.swap(true, Ordering::Relaxed) {
                self.breaches.inc();
                return Some(format!(
                    "SLO breach: fast-window burn {:.2}x, slow-window burn {:.2}x \
                     ({} of {} fast-window statements bad)",
                    fast_burn as f64 / 100.0,
                    slow_burn as f64 / 100.0,
                    fast.slow + fast.errors,
                    fast.total,
                ));
            }
        } else if fast_burn < 100 {
            self.in_breach.store(false, Ordering::Relaxed);
        }
        None
    }
}

#[derive(Default)]
struct WindowSum {
    total: u64,
    slow: u64,
    errors: u64,
}

fn window_sum(buckets: &[SloBucket], now_sec: u64, window: u64) -> WindowSum {
    let floor = now_sec.saturating_sub(window - 1);
    let mut sum = WindowSum::default();
    for b in buckets {
        if b.total > 0 && b.sec >= floor && b.sec <= now_sec {
            sum.total += b.total;
            sum.slow += b.slow;
            sum.errors += b.errors;
        }
    }
    sum
}

/// Burn rate ×100 for one window: the worse of the latency burn
/// ((slow/total) ÷ 1% budget) and the error burn ((errors/total) ÷ the
/// configured error budget).
fn burn_x100(w: &WindowSum, latency_armed: bool, err_budget_x100: u64) -> u64 {
    if w.total == 0 {
        return 0;
    }
    let latency = if latency_armed {
        // (slow/total) / (budget/10000) * 100 = slow * 10000 * 100 / (total * budget)
        w.slow * 10_000 * 100 / (w.total * LATENCY_BUDGET_X10000)
    } else {
        0
    };
    let errors = if err_budget_x100 != 0 {
        // budget fraction = err_budget_x100 / 10000
        w.errors * 10_000 * 100 / (w.total * err_budget_x100)
    } else {
        0
    };
    latency.max(errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(collector: &Arc<TraceCollector>, sql: &str, head: bool) -> ActiveTrace {
        let root = ("statement", String::new());
        collector.start("session", root, sql.into(), Instant::now(), head)
    }

    fn record(collector: &Arc<TraceCollector>, sql: &str) -> u64 {
        start(collector, sql, true).finish(None, None).trace_id
    }

    #[test]
    fn ring_keeps_and_looks_up_by_id() {
        let c = Arc::new(TraceCollector::new());
        assert!(c.enabled());
        assert_eq!(c.sample_period(), DEFAULT_TRACE_SAMPLE_PERIOD);
        let a = record(&c, "SELECT 1");
        let b = record(&c, "SELECT 2");
        assert_eq!(c.kept_total(), 2);
        let traces = c.traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].trace_id, b, "newest first");
        assert_eq!(c.trace(a).unwrap().sql, "SELECT 1");
        assert!(c.trace(9999).is_none());
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let c = Arc::new(TraceCollector::new());
        let first = record(&c, "first");
        for i in 0..TRACE_RING_SLOTS {
            record(&c, &format!("q{i}"));
        }
        assert!(c.trace(first).is_none(), "oldest trace evicted");
        assert_eq!(c.traces().len(), TRACE_RING_SLOTS);
    }

    #[test]
    fn incidents_freeze_the_ring_and_stay_bounded() {
        let c = Arc::new(TraceCollector::new());
        // A failed statement freezes the ring by finishing.
        let failed = start(&c, "UPDATE t SET v = 1", false);
        let id = failed
            .finish(Some("commit_prepared fault on 'ds_1'".into()), None)
            .trace_id;
        // New traffic after the freeze does not leak into the incident.
        record(&c, "SELECT later");
        let incidents = c.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].kind, IncidentKind::InjectedFault);
        assert_eq!(incidents[0].trace_id, Some(id));
        assert_eq!(incidents[0].frozen.len(), 1);
        assert_eq!(incidents[0].frozen[0].trace_id, id);
        for _ in 0..(INCIDENT_CAPACITY + 5) {
            c.record_incident(IncidentKind::StatementError, "e".into(), None);
        }
        assert_eq!(c.incidents().len(), INCIDENT_CAPACITY);
        assert_eq!(c.incidents_total(), 1 + (INCIDENT_CAPACITY as u64) + 5);
    }

    /// One finish serves every reader: only a head-sampled, failed or slow
    /// record enters the ring; the slow log gets the same record and the id
    /// the ring holds it under; a failed span freezes an incident even when
    /// its statement succeeded.
    #[test]
    fn finish_keeps_head_sampled_failed_and_slow_records() {
        let c = Arc::new(TraceCollector::new());
        let slow_log = SlowQueryLog::new();
        let unsampled = start(&c, "SELECT fast", false).finish(None, Some(&slow_log));
        assert!(c.trace(unsampled.trace_id).is_none());
        assert!(slow_log.entries().is_empty());

        slow_log.set_threshold_us(1);
        let slow = start(&c, "SELECT slow", false).finish(None, Some(&slow_log));
        assert!(c.trace(slow.trace_id).is_some());
        assert!(Arc::ptr_eq(&slow_log.entries()[0].record, &slow));

        let mut laggard = start(&c, "COMMIT", true);
        laggard.stage(Stage::Route);
        let branch = laggard.begin_stage(Stage::Execute);
        laggard.end_stage(&branch, Some("injected fault: commit refused".into()));
        let laggard = laggard.finish(None, None);
        assert_eq!(laggard.error, None);
        assert_eq!(
            laggard.stage_us().map(|us| us > 0),
            [false, true, false, true, false]
        );
        assert_eq!(c.incidents()[0].kind, IncidentKind::InjectedFault);
        assert_eq!(c.incidents()[0].trace_id, Some(laggard.trace_id));

        // `SET trace_sample = off`: nothing enters the ring or the flight
        // recorder; the slow log still captures.
        c.set_sample_period(0);
        let off = start(&c, "SELECT off", false).finish(Some("boom".into()), Some(&slow_log));
        assert!(c.trace(off.trace_id).is_none());
        assert_eq!(slow_log.entries()[0].record.trace_id, off.trace_id);
        assert_eq!(c.incidents().len(), 1);
    }

    #[test]
    fn traces_json_is_an_array() {
        let c = Arc::new(TraceCollector::new());
        assert_eq!(c.traces_json(), "[]");
        record(&c, "SELECT 1");
        let json = c.traces_json();
        assert!(json.starts_with("[{\"trace_id\":"));
        assert!(json.ends_with("]}]"));
    }

    #[test]
    fn slo_unarmed_is_a_noop_and_armed_breaches_latch() {
        let slo = SloMonitor::new(Arc::new(Counter::default()));
        assert!(!slo.armed());
        assert!(slo.observe(true, 10_000_000, true).is_none());

        slo.set_read_p99_ms(1); // 1ms objective
        assert!(slo.armed());
        assert_eq!(slo.read_p99_ms(), 1);
        // Fast statements: no burn.
        for _ in 0..10 {
            assert!(slo.observe(true, 100, false).is_none());
        }
        assert_eq!(slo.burn_rates_x100().0, 0);
        // A run of slow reads: 100% bad vs a 1% budget → 100x burn, one
        // breach (latched), counted once.
        let mut breaches = 0;
        for _ in 0..10 {
            if slo.observe(true, 5_000, false).is_some() {
                breaches += 1;
            }
        }
        assert_eq!(breaches, 1);
        assert_eq!(slo.breaches_total(), 1);
        assert!(slo.burn_rates_x100().0 >= 100);
    }

    #[test]
    fn slo_error_budget_burns_independently() {
        let slo = SloMonitor::new(Arc::new(Counter::default()));
        slo.set_error_pct_x100(100); // 1% error budget
        let mut breached = false;
        for _ in 0..10 {
            breached |= slo.observe(false, 100, true).is_some();
        }
        assert!(breached);
        assert_eq!(slo.breaches_total(), 1);
    }
}
