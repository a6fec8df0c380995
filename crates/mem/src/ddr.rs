//! DDR4 DIMM timing model.
//!
//! A [`Dimm`] is a set of banks, each with an open-row register and a
//! busy-until calendar, plus a shared data bus. Accesses are issued at
//! cache-line (burst) granularity; streaming transfers use
//! [`Dimm::stream`], which reserves whole-row bursts to keep large-footprint
//! experiments fast without losing bus-contention fidelity.
//!
//! The timing parameters follow the JEDEC DDR4-2400 speed grade the paper's
//! configuration (8 DDR4 DIMMs, 2 memory controllers) implies.

use reach_sim::{Frequency, Reservation, SerialResource, SimDuration, SimTime};

/// Whether an access reads or writes the DRAM array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read burst.
    Read,
    /// A write burst.
    Write,
}

/// Row-buffer management policy.
///
/// The host memory controller runs open-page; an AIM module that owns a DIMM
/// enforces closed-row so the host can assume all banks are precharged when
/// control is handed back (paper, Section II-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum RowPolicy {
    /// Leave the row open after an access (row hits get CAS-only latency).
    #[default]
    OpenPage,
    /// Precharge immediately after every access.
    ClosedRow,
}

/// DDR4 timing parameters, in device clock cycles unless noted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DdrTiming {
    /// I/O bus frequency (the "2400" in DDR4-2400 is megatransfers/s; the
    /// bus clock is half that).
    pub io_clock: Frequency,
    /// CAS latency (column access strobe), cycles.
    pub cl: u64,
    /// Row-to-column delay, cycles.
    pub t_rcd: u64,
    /// Precharge time, cycles.
    pub t_rp: u64,
    /// Minimum row-active time, cycles.
    pub t_ras: u64,
    /// Refresh cycle time.
    pub t_rfc: SimDuration,
    /// Average refresh interval.
    pub t_refi: SimDuration,
    /// Burst length in bus transfers (8 for DDR4).
    pub burst_len: u64,
}

impl DdrTiming {
    /// JEDEC DDR4-2400 (CL17) timing.
    #[must_use]
    pub fn ddr4_2400() -> Self {
        DdrTiming {
            io_clock: Frequency::from_mhz(1200),
            cl: 17,
            t_rcd: 17,
            t_rp: 17,
            t_ras: 39,
            t_rfc: SimDuration::from_ns(350),
            t_refi: SimDuration::from_ns(7_800),
            burst_len: 8,
        }
    }

    fn cycles(&self, n: u64) -> SimDuration {
        self.io_clock.cycles(n)
    }

    /// Time the data bus is occupied by one burst (half the burst length in
    /// bus-clock cycles, because DDR transfers on both edges).
    #[must_use]
    pub fn burst_time(&self) -> SimDuration {
        self.cycles(self.burst_len / 2)
    }

    /// CAS-only access latency (row already open).
    #[must_use]
    pub fn hit_latency(&self) -> SimDuration {
        self.cycles(self.cl) + self.burst_time()
    }

    /// Activate + CAS latency (bank precharged).
    #[must_use]
    pub fn act_latency(&self) -> SimDuration {
        self.cycles(self.t_rcd + self.cl) + self.burst_time()
    }

    /// Precharge + activate + CAS latency (row conflict).
    #[must_use]
    pub fn conflict_latency(&self) -> SimDuration {
        self.cycles(self.t_rp + self.t_rcd + self.cl) + self.burst_time()
    }
}

/// Geometry and policy configuration of one DIMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DimmConfig {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Number of banks (rank x bank-group x bank flattened).
    pub banks: u64,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Transfer granularity in bytes — one cache line per burst.
    pub line_bytes: u64,
    /// Timing parameters.
    pub timing: DdrTiming,
}

impl DimmConfig {
    /// A 16 GiB DDR4-2400 DIMM with 16 banks and 8 KiB rows — the shape the
    /// paper's Table II system (8 DDR4 DIMMs) uses.
    #[must_use]
    pub fn ddr4_16gb() -> Self {
        DimmConfig {
            capacity: 16 << 30,
            banks: 16,
            row_bytes: 8 << 10,
            line_bytes: 64,
            timing: DdrTiming::ddr4_2400(),
        }
    }
}

/// Statistics a DIMM accumulates for the energy model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DimmStats {
    /// Row activations issued.
    pub activations: u64,
    /// Read bursts issued.
    pub read_bursts: u64,
    /// Write bursts issued.
    pub write_bursts: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Bytes moved over the data bus.
    pub bytes: u64,
}

/// State of one DRAM bank.
#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: SimTime,
}

/// One DDR4 DIMM: banks plus a shared data bus.
///
/// # Example
///
/// ```
/// use reach_mem::{Dimm, DimmConfig, AccessKind, RowPolicy};
/// use reach_sim::SimTime;
///
/// let mut dimm = Dimm::new(DimmConfig::ddr4_16gb());
/// let first = dimm.access(SimTime::ZERO, 0, AccessKind::Read, RowPolicy::OpenPage);
/// let second = dimm.access(first.complete, 64, AccessKind::Read, RowPolicy::OpenPage);
/// // Same row: the second access is a row hit and therefore faster.
/// assert!(second.complete - second.start < first.complete - first.start);
/// ```
#[derive(Clone, Debug)]
pub struct Dimm {
    config: DimmConfig,
    banks: Vec<Bank>,
    bus: SerialResource,
    stats: DimmStats,
}

impl Dimm {
    /// Creates an idle DIMM with all banks precharged.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero banks, or a row
    /// smaller than a line).
    #[must_use]
    pub fn new(config: DimmConfig) -> Self {
        assert!(config.banks > 0, "Dimm: need at least one bank");
        assert!(
            config.row_bytes >= config.line_bytes && config.line_bytes > 0,
            "Dimm: row must hold at least one line"
        );
        Dimm {
            config,
            banks: vec![Bank::default(); config.banks as usize],
            bus: SerialResource::new(),
            stats: DimmStats::default(),
        }
    }

    /// The DIMM's configuration.
    #[must_use]
    pub fn config(&self) -> &DimmConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &DimmStats {
        &self.stats
    }

    /// Peak data-bus bandwidth of this DIMM in bytes/s.
    #[must_use]
    pub fn peak_bandwidth_bytes_per_sec(&self) -> u64 {
        let line_time = self.config.timing.burst_time().as_ps();
        self.config.line_bytes * 1_000_000_000_000 / line_time
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let row_index = addr / self.config.row_bytes;
        let bank = (row_index % self.config.banks) as usize;
        let row = row_index / self.config.banks;
        (bank, row)
    }

    /// Pushes `t` past any refresh blackout it lands in. Refresh is modeled
    /// as a periodic whole-device blackout of `t_rfc` every `t_refi`.
    fn refresh_adjust(&self, t: SimTime) -> SimTime {
        let refi = self.config.timing.t_refi.as_ps();
        let rfc = self.config.timing.t_rfc.as_ps();
        let phase = t.as_ps() % refi;
        if phase < rfc {
            SimTime::from_ps(t.as_ps() - phase + rfc)
        } else {
            t
        }
    }

    /// Performs one line-granularity access at `addr`.
    ///
    /// The returned [`Reservation`] covers queueing behind the bank and the
    /// shared data bus; `complete` is when the data burst finishes.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the DIMM capacity.
    pub fn access(
        &mut self,
        now: SimTime,
        addr: u64,
        kind: AccessKind,
        policy: RowPolicy,
    ) -> Reservation {
        assert!(
            addr < self.config.capacity,
            "Dimm::access: address {addr:#x} beyond capacity"
        );
        let (bank_idx, row) = self.locate(addr);
        let t = self.config.timing;
        let bank_ready = self.banks[bank_idx].ready_at;
        let start = self.refresh_adjust(now.max(bank_ready));
        let bank = &mut self.banks[bank_idx];
        let (array_latency, hit) = match bank.open_row {
            Some(open) if open == row => (t.hit_latency(), true),
            Some(_) => (t.conflict_latency(), false),
            None => (t.act_latency(), false),
        };
        if !hit {
            self.stats.activations += 1;
        } else {
            self.stats.row_hits += 1;
        }

        // The burst occupies the shared data bus at the tail of the access.
        let burst = t.burst_time();
        let data_at = start + (array_latency - burst);
        let bus_res = self.bus.reserve(data_at, burst);
        let complete = bus_res.ready;

        bank.open_row = match policy {
            RowPolicy::OpenPage => Some(row),
            RowPolicy::ClosedRow => None,
        };
        // Bank is busy until the burst drains (plus precharge under
        // closed-row); enforce minimum row-active time for new activations.
        let mut ready = complete;
        if policy == RowPolicy::ClosedRow {
            ready += t.cycles(t.t_rp);
        }
        if !hit {
            ready = ready.max(start + t.cycles(t.t_ras));
        }
        bank.ready_at = ready;

        match kind {
            AccessKind::Read => self.stats.read_bursts += 1,
            AccessKind::Write => self.stats.write_bursts += 1,
        }
        self.stats.bytes += self.config.line_bytes;

        Reservation {
            start,
            ready,
            complete,
        }
    }

    /// Streams `bytes` sequentially starting at `addr` — the fast path for
    /// the multi-gigabyte scans in the CBIR experiments.
    ///
    /// The stream is billed row by row: each row pays one activation plus
    /// back-to-back bursts on the shared bus, so a competing stream on the
    /// same DIMM still contends for bus time. Row activations overlap the
    /// previous row's bursts (bank-level parallelism), matching how an
    /// FR-FCFS controller pipelines a sequential scan.
    ///
    /// Interior full rows are reserved in refresh-period batches via
    /// [`SerialResource::reserve_many`], and once the bus phase within the
    /// refresh period repeats, whole cycles of periods are taken in one
    /// step. Timing and stats are bit-identical to the row-by-row loop (a
    /// property test checks this against a reference implementation), but
    /// the cost is O(periods to reach the cycle + one cycle) instead of
    /// O(rows). The first row (activate lead-in), the final `banks + 1`
    /// rows (per-bank open-row/ready state) and any partial rows stay on
    /// the per-row path.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the DIMM capacity or `bytes` is zero.
    pub fn stream(
        &mut self,
        now: SimTime,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        policy: RowPolicy,
    ) -> Reservation {
        assert!(bytes > 0, "Dimm::stream: empty transfer");
        assert!(
            addr.checked_add(bytes)
                .is_some_and(|end| end <= self.config.capacity),
            "Dimm::stream: range beyond capacity"
        );
        let t = self.config.timing;
        let row_bytes = self.config.row_bytes;
        let line = self.config.line_bytes;

        let mut offset = addr;
        let mut remaining = bytes;
        let mut first_start: Option<SimTime> = None;
        let mut complete = now;
        // Brent cycle detection over the per-period phase recurrence:
        // `anchor` is a batch start (`p_adj`, `offset`) checkpointed after
        // `power` batches, and `lap` counts batches since the checkpoint.
        let mut anchor: Option<(SimTime, u64)> = None;
        let (mut lap, mut power) = (1u64, 1u64);

        while remaining > 0 {
            let in_row = (row_bytes - (offset % row_bytes)).min(remaining);

            // Batched fast path: runs of interior full rows within one
            // refresh period collapse into a single bus reservation. The
            // per-row loop below would give every one of them zero lead-in,
            // a start of `refresh_adjust(now.max(bus.free_at()))` (the
            // identity inside a period, since starts advance monotonically
            // past the blackout) and an identical service time, so
            // `reserve_many` reproduces its timing exactly. The final
            // `banks + 1` rows are excluded so each bank's open-row and
            // ready-at state is written by the genuine last row touching it.
            //
            // Refresh-cycle skip: a batch is a pure function of the phase of
            // `p_adj` within the refresh period (the blackout adjust, then
            // the rows that start before the period end, the last one
            // allowed to overrun), so the phase sequence is eventually
            // periodic. Once `p_adj` returns to the anchor's phase, the
            // batches since the anchor repeat verbatim: `cycles` of them
            // reserve `cycle_rows` rows each and advance the bus by the
            // anchor-to-here span each, exactly as the per-batch walk would.
            if first_start.is_some() && in_row == row_bytes {
                let full_rows_left = remaining / row_bytes;
                let tail_rows = self.config.banks + 1;
                if full_rows_left > tail_rows {
                    let eligible = full_rows_left - tail_rows;
                    let lines_per_row = row_bytes / line;
                    let row_service = t.burst_time().scaled(lines_per_row);
                    let p_adj = self.refresh_adjust(now.max(self.bus.free_at()));
                    let refi = t.t_refi.as_ps();
                    let period_end = (p_adj.as_ps() / refi + 1) * refi;
                    // Rows fitting before the next blackout: starts are
                    // p_adj + i*service, valid while strictly below the
                    // period end.
                    let fit = (period_end - p_adj.as_ps()).div_ceil(row_service.as_ps().max(1));
                    let mut take = fit.min(eligible);
                    let mut cycle_end = None;
                    if let Some((at, from)) = anchor {
                        let span = p_adj - at;
                        let cycle_rows = (offset - from) / row_bytes;
                        let cycles = eligible / cycle_rows;
                        if span.as_ps().is_multiple_of(refi) && cycles > 0 {
                            take = cycles * cycle_rows;
                            cycle_end = Some(p_adj + span * cycles);
                        }
                    }
                    if lap == power {
                        anchor = Some((p_adj, offset));
                        (lap, power) = (0, power * 2);
                    }
                    lap += 1;

                    let res = self.bus.reserve_many(p_adj, row_service, take);
                    complete = res.ready;
                    if let Some(end) = cycle_end {
                        // The skipped blackouts idle the bus without
                        // counting as busy time.
                        self.bus.block_until(end);
                    }
                    self.stats.activations += take;
                    self.stats.bytes += take * row_bytes;
                    match kind {
                        AccessKind::Read => self.stats.read_bursts += take * lines_per_row,
                        AccessKind::Write => self.stats.write_bursts += take * lines_per_row,
                    }
                    offset += take * row_bytes;
                    remaining -= take * row_bytes;
                    continue;
                }
            }

            let lines = in_row.div_ceil(line);
            let burst_total = t.burst_time().scaled(lines);

            // First row pays the full activate latency; subsequent rows hide
            // it behind the previous row's bursts (pipelined activation in
            // another bank), paying only the bus time.
            let lead_in = if first_start.is_none() {
                t.cycles(t.t_rcd + t.cl)
            } else {
                SimDuration::ZERO
            };
            let start = self.refresh_adjust(now.max(self.bus.free_at()));
            let res = self.bus.reserve(start + lead_in, burst_total);
            first_start.get_or_insert(res.start - lead_in);
            complete = res.ready;

            self.stats.activations += 1;
            self.stats.bytes += lines * line;
            match kind {
                AccessKind::Read => self.stats.read_bursts += lines,
                AccessKind::Write => self.stats.write_bursts += lines,
            }
            // Track which row ends open for policy accounting.
            let (bank_idx, row) = self.locate(offset);
            self.banks[bank_idx].open_row = match policy {
                RowPolicy::OpenPage => Some(row),
                RowPolicy::ClosedRow => None,
            };
            self.banks[bank_idx].ready_at = complete;

            offset += in_row;
            remaining -= in_row;
        }

        Reservation {
            start: first_start.expect("stream issued at least one row"),
            ready: complete,
            complete,
        }
    }

    /// Leaves every bank precharged and returns when the hand-over to a new
    /// owner is complete (all in-flight work drained plus one precharge).
    pub fn hand_over(&mut self, now: SimTime) -> SimTime {
        let t = self.config.timing;
        let mut done = now.max(self.bus.free_at());
        for bank in &mut self.banks {
            done = done.max(bank.ready_at);
            bank.open_row = None;
        }
        let done = done + t.cycles(t.t_rp);
        for bank in &mut self.banks {
            bank.ready_at = done;
        }
        done
    }

    /// Total time the data bus was occupied (for utilization / energy).
    #[must_use]
    pub fn bus_busy_time(&self) -> SimDuration {
        self.bus.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dimm() -> Dimm {
        Dimm::new(DimmConfig::ddr4_16gb())
    }

    /// The pre-batching row-by-row stream, kept verbatim as the equivalence
    /// oracle for the `reserve_many` fast path in [`Dimm::stream`].
    fn stream_reference(
        d: &mut Dimm,
        now: SimTime,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        policy: RowPolicy,
    ) -> Reservation {
        let t = d.config.timing;
        let row_bytes = d.config.row_bytes;
        let line = d.config.line_bytes;

        let mut offset = addr;
        let mut remaining = bytes;
        let mut first_start: Option<SimTime> = None;
        let mut complete = now;

        while remaining > 0 {
            let in_row = (row_bytes - (offset % row_bytes)).min(remaining);
            let lines = in_row.div_ceil(line);
            let burst_total = t.burst_time().scaled(lines);
            let lead_in = if first_start.is_none() {
                t.cycles(t.t_rcd + t.cl)
            } else {
                SimDuration::ZERO
            };
            let start = d.refresh_adjust(now.max(d.bus.free_at()));
            let res = d.bus.reserve(start + lead_in, burst_total);
            first_start.get_or_insert(res.start - lead_in);
            complete = res.ready;

            d.stats.activations += 1;
            d.stats.bytes += lines * line;
            match kind {
                AccessKind::Read => d.stats.read_bursts += lines,
                AccessKind::Write => d.stats.write_bursts += lines,
            }
            let (bank_idx, row) = d.locate(offset);
            d.banks[bank_idx].open_row = match policy {
                RowPolicy::OpenPage => Some(row),
                RowPolicy::ClosedRow => None,
            };
            d.banks[bank_idx].ready_at = complete;

            offset += in_row;
            remaining -= in_row;
        }

        Reservation {
            start: first_start.expect("stream issued at least one row"),
            ready: complete,
            complete,
        }
    }

    /// The timings the oracle runs under: the shipped DDR4-2400; a small
    /// tRFC, whose batch phase needs several refresh periods to return;
    /// and a tREFI of exactly 18 row services, whose phase never enters
    /// the blackout.
    fn oracle_timings() -> [DdrTiming; 3] {
        let ddr4 = DdrTiming::ddr4_2400();
        let cfg = DimmConfig::ddr4_16gb();
        let row_service = ddr4.burst_time().scaled(cfg.row_bytes / cfg.line_bytes);
        [
            ddr4,
            DdrTiming {
                t_rfc: SimDuration::from_ns(40),
                ..ddr4
            },
            DdrTiming {
                t_refi: row_service.scaled(18),
                ..ddr4
            },
        ]
    }

    /// The phase (within the refresh period) of each batch start the
    /// stream's batched path walks from `phase`, one refresh period per
    /// step: returns `(steps before the cycle, cycle length in periods)`.
    fn batch_phase_cycle(t: &DdrTiming, row_service: u64, mut phase: u64) -> (usize, usize) {
        let (refi, rfc) = (t.t_refi.as_ps(), t.t_rfc.as_ps());
        let mut seen = Vec::new();
        while !seen.contains(&phase) {
            seen.push(phase);
            let raw = (phase + (refi - phase).div_ceil(row_service) * row_service) % refi;
            phase = raw.max(rfc);
        }
        let mu = seen
            .iter()
            .position(|&p| p == phase)
            .expect("phase was seen");
        (mu, seen.len() - mu)
    }

    /// One oracle comparison: the same traffic, then one stream, on a
    /// batched DIMM and on a row-by-row reference DIMM.
    struct OracleCase {
        /// Index into [`oracle_timings`].
        timing: usize,
        /// Line accesses issued first.
        pre: Vec<u64>,
        /// A stream of this many KiB issued after `pre` (0: none).
        prior_kib: u64,
        /// Where the stream is issued: 0 after the prior traffic
        /// completes, 1 at the prior traffic's issue instant (so it queues
        /// behind the prior stream's bus `free_at`), 2..=7 so the first
        /// batch starts at a chosen phase of the next refresh period.
        start: u64,
        /// The phase for `start == 7`.
        phase: u64,
    }

    impl OracleCase {
        fn check(&self, addr: u64, bytes: u64, write: bool, closed: bool) {
            let t = oracle_timings()[self.timing];
            let config = DimmConfig {
                timing: t,
                ..DimmConfig::ddr4_16gb()
            };
            let mut fast = Dimm::new(config);
            let mut slow = Dimm::new(config);
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let policy = if closed {
                RowPolicy::ClosedRow
            } else {
                RowPolicy::OpenPage
            };

            // Warm both DIMMs with identical traffic so the stream starts
            // from a non-trivial bus/bank state.
            let mut now = SimTime::ZERO;
            for &a in &self.pre {
                let rf = fast.access(now, a, kind, policy);
                let rs = slow.access(now, a, kind, policy);
                assert_eq!(rf, rs);
                now = rf.complete;
            }
            let issued = now;
            if self.prior_kib > 0 {
                let prior = self.prior_kib << 10;
                let rf = fast.stream(now, 8 << 30, prior, kind, policy);
                let rs = stream_reference(&mut slow, now, 8 << 30, prior, kind, policy);
                assert_eq!(rf, rs);
                now = rf.complete;
            }

            let (refi, rfc) = (t.t_refi.as_ps(), t.t_rfc.as_ps());
            let now = match self.start {
                0 => now,
                1 => issued,
                _ => {
                    // The first row occupies the bus for its lead-in and
                    // bursts; the first batch starts where it ends.
                    let first_bytes = (config.row_bytes - addr % config.row_bytes).min(bytes);
                    let first = t.cycles(t.t_rcd + t.cl)
                        + t.burst_time()
                            .scaled(first_bytes.div_ceil(config.line_bytes));
                    let target =
                        [refi - 1, 0, 1, rfc - 1, rfc, self.phase % refi][self.start as usize - 2];
                    let next_period = (now.as_ps() / refi + 2) * refi;
                    SimTime::from_ps(next_period + target - first.as_ps())
                }
            };
            let rf = fast.stream(now, addr, bytes, kind, policy);
            let rs = stream_reference(&mut slow, now, addr, bytes, kind, policy);
            assert_eq!(rf, rs);
            assert_eq!(fast.stats, slow.stats);
            assert_eq!(fast.bus.free_at(), slow.bus.free_at());
            assert_eq!(fast.bus.busy_time(), slow.bus.busy_time());
            assert_eq!(fast.bus.served(), slow.bus.served());
            for (b, (f, s)) in fast.banks.iter().zip(&slow.banks).enumerate() {
                assert_eq!(f.open_row, s.open_row, "bank {b} open row");
                assert_eq!(f.ready_at, s.ready_at, "bank {b} ready");
            }

            // A follow-up access observes the same world.
            let f2 = fast.access(rf.complete, addr, kind, policy);
            let s2 = slow.access(rs.complete, addr, kind, policy);
            assert_eq!(f2, s2);
        }
    }

    #[test]
    fn ddr4_2400_streams_18_rows_per_period_from_trfc() {
        let mut d = dimm();
        let t = d.config.timing;
        let row_service = t
            .burst_time()
            .scaled(d.config.row_bytes / d.config.line_bytes);
        let (refi, rfc) = (t.t_refi, t.t_rfc);
        assert_eq!(row_service.as_ps(), 426_752);
        // From phase tRFC, 18 rows start before the period ends; the last
        // overruns to phase 231,536 ps, inside the next blackout, which
        // moves it back to tRFC: a fixed point.
        let overrun = (rfc + row_service.scaled(18)).as_ps() % refi.as_ps();
        assert_eq!(overrun, 231_536);
        assert_eq!(
            batch_phase_cycle(&t, row_service.as_ps(), rfc.as_ps()),
            (0, 1)
        );

        // End to end: issue the first (aligned) row so it ends exactly at
        // tRFC of period 1; every later period then holds one 18-row batch
        // starting at its tRFC, and the 17-row tail fits in the last.
        let periods = 1_000;
        let lead_in = t.cycles(t.t_rcd + t.cl);
        let now = SimTime::ZERO + refi + rfc - lead_in - row_service;
        let rows = 1 + 18 * periods + d.config.banks + 1;
        let r = d.stream(
            now,
            0,
            rows * d.config.row_bytes,
            AccessKind::Read,
            RowPolicy::ClosedRow,
        );
        assert_eq!(r.start, now);
        assert_eq!(
            r.complete,
            SimTime::ZERO + refi.scaled(periods + 1) + rfc + row_service.scaled(d.config.banks + 1)
        );
        assert_eq!(d.bus_busy_time(), row_service.scaled(rows));
        assert_eq!(d.stats().activations, rows);
    }

    #[test]
    fn oracle_timings_cover_a_long_cycle_and_a_blackout_free_one() {
        let cfg = DimmConfig::ddr4_16gb();
        let [_, small_rfc, refi_multiple] = oracle_timings();
        let service = small_rfc
            .burst_time()
            .scaled(cfg.row_bytes / cfg.line_bytes)
            .as_ps();
        // The small tRFC returns to its phase only every 11 periods.
        let rfc = small_rfc.t_rfc.as_ps();
        assert_eq!(batch_phase_cycle(&small_rfc, service, rfc), (0, 11));
        // With tREFI = 18 row services the overrun lands exactly on tRFC,
        // never inside the blackout, and every start phase is a fixed
        // point after at most one period.
        let (refi, rfc) = (refi_multiple.t_refi.as_ps(), refi_multiple.t_rfc.as_ps());
        assert_eq!((rfc + 18 * service) % refi, rfc);
        for phase in [rfc, rfc + 1, service - 1, 1_234_567, refi - 1] {
            assert_eq!(batch_phase_cycle(&refi_multiple, service, phase).1, 1);
        }
    }

    #[test]
    fn row_hit_is_faster_than_activation() {
        let t = DdrTiming::ddr4_2400();
        assert!(t.hit_latency() < t.act_latency());
        assert!(t.act_latency() < t.conflict_latency());
    }

    #[test]
    fn sequential_same_row_accesses_hit() {
        let mut d = dimm();
        let a = d.access(SimTime::ZERO, 0, AccessKind::Read, RowPolicy::OpenPage);
        let b = d.access(a.complete, 64, AccessKind::Read, RowPolicy::OpenPage);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().activations, 1);
        assert!(b.complete - b.start < a.complete - a.start);
    }

    #[test]
    fn closed_row_policy_never_hits() {
        let mut d = dimm();
        let a = d.access(SimTime::ZERO, 0, AccessKind::Read, RowPolicy::ClosedRow);
        let _b = d.access(a.ready, 64, AccessKind::Read, RowPolicy::ClosedRow);
        assert_eq!(d.stats().row_hits, 0);
        assert_eq!(d.stats().activations, 2);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = dimm();
        let cfg = *d.config();
        // Two addresses in the same bank but different rows: stride by
        // row_bytes * banks.
        let conflict_addr = cfg.row_bytes * cfg.banks;
        let a = d.access(SimTime::ZERO, 0, AccessKind::Read, RowPolicy::OpenPage);
        let b = d.access(
            a.ready,
            conflict_addr,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
        assert_eq!((b.complete - b.start), cfg.timing.conflict_latency());
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = dimm();
        let cfg = *d.config();
        // Addresses in different banks: consecutive rows.
        let a = d.access(SimTime::ZERO, 0, AccessKind::Read, RowPolicy::OpenPage);
        let b = d.access(
            SimTime::ZERO,
            cfg.row_bytes,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
        // Bank work overlaps; only the bus serializes the two bursts.
        assert!(b.complete < a.complete + cfg.timing.act_latency());
    }

    #[test]
    fn stream_approaches_peak_bandwidth() {
        let mut d = dimm();
        let bytes: u64 = 64 << 20; // 64 MiB
        let r = d.stream(
            SimTime::ZERO,
            0,
            bytes,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
        let secs = (r.complete - r.start).as_secs_f64();
        let achieved = bytes as f64 / secs;
        let peak = d.peak_bandwidth_bytes_per_sec() as f64;
        // Streaming should reach at least 80% of peak (refresh + lead-in
        // overheads), and never exceed it.
        assert!(
            achieved > 0.8 * peak,
            "achieved {achieved:.2e} vs peak {peak:.2e}"
        );
        assert!(achieved <= peak * 1.001);
    }

    #[test]
    fn stream_counts_bursts_and_bytes() {
        let mut d = dimm();
        d.stream(
            SimTime::ZERO,
            0,
            1 << 20,
            AccessKind::Write,
            RowPolicy::OpenPage,
        );
        assert_eq!(d.stats().write_bursts, (1 << 20) / 64);
        assert_eq!(d.stats().bytes, 1 << 20);
        // 1 MiB crosses 128 rows of 8 KiB.
        assert_eq!(d.stats().activations, 128);
    }

    #[test]
    fn two_streams_share_the_bus() {
        let mut d = dimm();
        let solo_time = {
            let mut d2 = dimm();
            let r = d2.stream(
                SimTime::ZERO,
                0,
                8 << 20,
                AccessKind::Read,
                RowPolicy::OpenPage,
            );
            r.complete
        };
        let a = d.stream(
            SimTime::ZERO,
            0,
            8 << 20,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
        let b = d.stream(
            SimTime::ZERO,
            1 << 30,
            8 << 20,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
        // The later of the two concurrent streams takes ~2x the solo time.
        let concurrent = a.complete.max(b.complete);
        let ratio = concurrent.as_ps() as f64 / solo_time.as_ps() as f64;
        assert!(ratio > 1.8, "expected bus sharing, ratio {ratio}");
    }

    #[test]
    fn refresh_blackout_delays_accesses() {
        let mut d = dimm();
        // Land exactly inside the first refresh window [0, tRFC).
        let r = d.access(
            SimTime::from_ps(1),
            0,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
        assert!(r.start >= SimTime::ZERO + d.config().timing.t_rfc);
    }

    #[test]
    fn hand_over_precharges_everything() {
        let mut d = dimm();
        d.access(SimTime::ZERO, 0, AccessKind::Read, RowPolicy::OpenPage);
        let done = d.hand_over(SimTime::from_ps(1));
        // After hand-over the next access must activate (no open row)...
        let r = d.access(done, 64, AccessKind::Read, RowPolicy::OpenPage);
        assert_eq!(d.stats().row_hits, 0); // would have been a hit without hand-over
        assert_eq!(r.complete - r.start, d.config().timing.act_latency());
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn access_out_of_range_panics() {
        let mut d = dimm();
        let cap = d.config().capacity;
        d.access(SimTime::ZERO, cap, AccessKind::Read, RowPolicy::OpenPage);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Completion times are causal (complete >= start >= issue) and the
        /// bus never moves more bytes than the stats record, for any access
        /// mix.
        #[test]
        fn accesses_are_causal(
            ops in proptest::collection::vec((0u64..(1u64 << 24), any::<bool>()), 1..64),
        ) {
            let mut d = dimm();
            let mut now = SimTime::ZERO;
            for &(addr, write) in &ops {
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let r = d.access(now, addr, kind, RowPolicy::OpenPage);
                prop_assert!(r.start >= now);
                prop_assert!(r.complete >= r.start);
                prop_assert!(r.ready >= r.complete);
                now = r.complete;
            }
            prop_assert_eq!(d.stats().bytes, ops.len() as u64 * 64);
            prop_assert_eq!(
                d.stats().row_hits + d.stats().activations,
                ops.len() as u64
            );
        }

        /// Streaming N bytes never beats the theoretical peak bandwidth.
        #[test]
        fn stream_respects_peak(kib in 64u64..8_192) {
            let mut d = dimm();
            let bytes = kib << 10;
            let r = d.stream(SimTime::ZERO, 0, bytes, AccessKind::Read, RowPolicy::OpenPage);
            let secs = (r.complete - r.start).as_secs_f64();
            let rate = bytes as f64 / secs;
            prop_assert!(rate <= d.peak_bandwidth_bytes_per_sec() as f64 * 1.001,
                "rate {rate:.3e}");
        }

        /// The batched stream is bit-identical to the row-by-row reference:
        /// same reservation, stats, bus calendar, and per-bank state, for
        /// arbitrary (mis)alignment, size, policy, timing, start phase and
        /// prior traffic.
        #[test]
        fn batched_stream_matches_row_by_row_reference(
            addr_lines in 0u64..(1u64 << 14),
            misalign in 0u64..64,
            extra_bytes in 0u64..16_384,
            kib in 1u64..2_048,
            write in any::<bool>(),
            closed in any::<bool>(),
            pre in proptest::collection::vec(0u64..(1u64 << 20), 0..6),
            timing in 0usize..3,
            start in 0u64..8,
            phase in 0u64..7_800_000,
            prior_kib in 0u64..8_192,
        ) {
            let addr = addr_lines * 64 + misalign;
            let bytes = (kib << 10) + extra_bytes; // up to ~2 MiB, odd tails
            let case = OracleCase { timing, pre, prior_kib, start, phase };
            case.check(addr, bytes, write, closed);
        }

        /// The same oracle over multi-period and multi-GB streams (up to
        /// 4 GiB), where whole refresh cycles are skipped.
        #[test]
        fn cycle_skip_matches_row_by_row_reference_up_to_4_gib(
            addr_lines in 0u64..(1u64 << 14),
            misalign in 0u64..64,
            extra_bytes in 0u64..16_384,
            kib in 1u64..2_048,
            shift in 0u64..12,
            write in any::<bool>(),
            closed in any::<bool>(),
            timing in 0usize..3,
            start in 0u64..8,
            phase in 0u64..7_800_000,
            prior_kib in 0u64..8_192,
        ) {
            let addr = addr_lines * 64 + misalign;
            let bytes = (kib << (10 + shift)) + extra_bytes;
            let case = OracleCase { timing, pre: Vec::new(), prior_kib, start, phase };
            case.check(addr, bytes, write, closed);
        }

        /// Closed-row policy never produces a row hit.
        #[test]
        fn closed_row_never_hits(
            addrs in proptest::collection::vec(0u64..(1u64 << 20), 1..50),
        ) {
            let mut d = dimm();
            let mut now = SimTime::ZERO;
            for &a in &addrs {
                let r = d.access(now, a, AccessKind::Read, RowPolicy::ClosedRow);
                now = r.ready;
            }
            prop_assert_eq!(d.stats().row_hits, 0);
        }
    }

    #[test]
    fn peak_bandwidth_matches_ddr4_2400() {
        let d = dimm();
        // DDR4-2400 x64: 2400 MT/s * 8 B = 19.2 GB/s.
        let peak = d.peak_bandwidth_bytes_per_sec() as f64;
        assert!((peak - 19.2e9).abs() / 19.2e9 < 0.02, "peak {peak:.3e}");
    }
}
