//! Host memory controller: channels, interleaving, FR-FCFS approximation.
//!
//! The paper's GAM "reorganizes the memory space" between the CPU, the
//! on-chip accelerator and the near-memory accelerators by reprogramming the
//! memory controllers: channels serving CPU/on-chip traffic interleave at
//! cache-line granularity for aggregate bandwidth, while channels whose
//! DIMMs carry near-memory accelerators interleave at *tile* granularity so
//! each AIM module owns contiguous data (Section III-B). Both policies are
//! implemented here.
//!
//! Scheduling fidelity: a full FR-FCFS queue is approximated by (a) the
//! open-page row-hit fast path inside [`crate::ddr::Dimm`] — the "FR" part —
//! and (b) per-bank and per-bus calendars that serialize conflicting work in
//! arrival order — the "FCFS" part. The read/write queue depths in
//! [`MemoryControllerConfig`] bound how many line requests a single bulk
//! operation may pipeline at once.

use crate::ddr::{AccessKind, Dimm, DimmConfig, RowPolicy};
use reach_sim::{Reservation, SerialResource, SimDuration, SimTime};

/// How the physical address space is spread across DIMMs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interleave {
    /// Consecutive cache lines rotate across every DIMM (high aggregate
    /// bandwidth for CPU / on-chip accelerator traffic).
    CacheLine,
    /// Contiguous tiles of the given size map to one DIMM each, so a
    /// near-memory accelerator finds whole tiles in its own DIMM.
    Tile(u64),
}

/// Memory controller configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryControllerConfig {
    /// Number of channels under this controller.
    pub channels: usize,
    /// DIMMs per channel.
    pub dimms_per_channel: usize,
    /// Per-DIMM geometry and timing.
    pub dimm: DimmConfig,
    /// Read request queue depth (bounds in-flight pipelining).
    pub read_queue: usize,
    /// Write request queue depth.
    pub write_queue: usize,
    /// Interleaving policy.
    pub interleave: Interleave,
}

impl MemoryControllerConfig {
    /// One of the paper's two controllers: 2 channels x 2 DIMMs, 64/64-entry
    /// read/write queues, FR-FCFS, cache-line interleave.
    #[must_use]
    pub fn paper_mc() -> Self {
        MemoryControllerConfig {
            channels: 2,
            dimms_per_channel: 2,
            dimm: DimmConfig::ddr4_16gb(),
            read_queue: 64,
            write_queue: 64,
            interleave: Interleave::CacheLine,
        }
    }
}

/// Aggregate transfer statistics for interconnect-energy accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Bytes that crossed this channel (host-side traffic only; AIM-local
    /// accesses bypass the channel).
    pub bytes: u64,
    /// Time requests spent queued behind other traffic for this channel's
    /// bus — the FCFS half of the FR-FCFS approximation made visible. Zero
    /// on an uncontended channel; co-running workloads grow it.
    pub contended: SimDuration,
}

struct Channel {
    bus: SerialResource,
    dimms: Vec<Dimm>,
    stats: ChannelStats,
}

/// A host memory controller.
///
/// # Example
///
/// ```
/// use reach_mem::{MemoryController, MemoryControllerConfig, AccessKind};
/// use reach_sim::SimTime;
///
/// let mut mc = MemoryController::new(MemoryControllerConfig::paper_mc());
/// let r = mc.stream(SimTime::ZERO, 0, 1 << 20, AccessKind::Read);
/// assert!(r.complete > SimTime::ZERO);
/// ```
pub struct MemoryController {
    config: MemoryControllerConfig,
    channels: Vec<Channel>,
}

impl MemoryController {
    /// Creates an idle controller with all DIMMs precharged.
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `dimms_per_channel` is zero, or if a
    /// tile-interleave size is not a multiple of the line size.
    #[must_use]
    pub fn new(config: MemoryControllerConfig) -> Self {
        assert!(config.channels > 0, "MemoryController: need channels");
        assert!(config.dimms_per_channel > 0, "MemoryController: need DIMMs");
        if let Interleave::Tile(t) = config.interleave {
            assert!(
                t > 0 && t % config.dimm.line_bytes == 0,
                "MemoryController: tile size must be a positive multiple of the line size"
            );
        }
        let channels = (0..config.channels)
            .map(|_| Channel {
                bus: SerialResource::new(),
                dimms: (0..config.dimms_per_channel)
                    .map(|_| Dimm::new(config.dimm))
                    .collect(),
                stats: ChannelStats::default(),
            })
            .collect();
        MemoryController { config, channels }
    }

    /// The controller configuration.
    #[must_use]
    pub fn config(&self) -> &MemoryControllerConfig {
        &self.config
    }

    /// Switches the interleaving policy (the GAM does this when it
    /// reorganizes the memory space for near-memory kernels).
    pub fn set_interleave(&mut self, interleave: Interleave) {
        if let Interleave::Tile(t) = interleave {
            assert!(
                t > 0 && t % self.config.dimm.line_bytes == 0,
                "set_interleave: tile size must be a positive multiple of the line size"
            );
        }
        self.config.interleave = interleave;
    }

    /// Total number of DIMMs under this controller.
    #[must_use]
    pub fn dimm_count(&self) -> usize {
        self.config.channels * self.config.dimms_per_channel
    }

    /// Maps an address to `(channel, dimm-slot, address-within-dimm)`.
    #[must_use]
    pub fn map(&self, addr: u64) -> (usize, usize, u64) {
        let n = self.dimm_count() as u64;
        let unit = match self.config.interleave {
            Interleave::CacheLine => self.config.dimm.line_bytes,
            Interleave::Tile(t) => t,
        };
        let idx = addr / unit;
        let dimm_linear = (idx % n) as usize;
        let local = (idx / n) * unit + (addr % unit);
        (
            dimm_linear % self.config.channels,
            dimm_linear / self.config.channels,
            local,
        )
    }

    /// Accesses one line through the channel (host-side path).
    pub fn access_line(&mut self, now: SimTime, addr: u64, kind: AccessKind) -> Reservation {
        let (ch, slot, local) = self.map(addr);
        let line = self.config.dimm.line_bytes;
        let burst = self.config.dimm.timing.burst_time();
        let channel = &mut self.channels[ch];
        let dram = channel.dimms[slot].access(now, local, kind, RowPolicy::OpenPage);
        // The burst also crosses the channel bus.
        let issued = dram.complete - burst;
        let bus = channel.bus.reserve(issued, burst);
        channel.stats.bytes += line;
        channel.stats.contended += bus.queueing(issued);
        Reservation {
            start: dram.start,
            ready: bus.ready,
            complete: bus.ready,
        }
    }

    /// Streams `bytes` starting at `addr` through the host channels.
    ///
    /// Under cache-line interleave the transfer is spread across every DIMM
    /// and proceeds in parallel, bounded by each channel bus; under tile
    /// interleave it touches only the DIMMs its tiles live on. Completion is
    /// when the last byte arrives.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn stream(&mut self, now: SimTime, addr: u64, bytes: u64, kind: AccessKind) -> Reservation {
        assert!(bytes > 0, "MemoryController::stream: empty transfer");
        let n = self.dimm_count() as u64;
        let mut start = SimTime::MAX;
        let mut complete = now;

        match self.config.interleave {
            Interleave::CacheLine => {
                // Even split across all DIMMs; each share streams locally and
                // its channel bus carries the channel's portion.
                let share = (bytes / n).max(self.config.dimm.line_bytes);
                for ch in 0..self.config.channels {
                    let per_channel = share * self.config.dimms_per_channel as u64;
                    let bus_time = self
                        .config
                        .dimm
                        .timing
                        .burst_time()
                        .scaled(per_channel / self.config.dimm.line_bytes);
                    let channel = &mut self.channels[ch];
                    let bus = channel.bus.reserve(now, bus_time);
                    channel.stats.bytes += per_channel;
                    channel.stats.contended += bus.queueing(now);
                    // A share larger than one DIMM streams in capacity-sized
                    // chunks, each after the previous one completes.
                    let capacity = self.config.dimm.capacity;
                    for dimm in &mut channel.dimms {
                        let mut left = share;
                        let mut at = now;
                        while left > 0 {
                            let chunk = left.min(capacity);
                            let local = (addr / n).min(capacity - chunk);
                            let r = dimm.stream(at, local, chunk, kind, RowPolicy::OpenPage);
                            start = start.min(r.start);
                            at = r.complete;
                            left -= chunk;
                        }
                        complete = complete.max(at).max(bus.ready);
                    }
                }
            }
            Interleave::Tile(tile) => {
                // Walk the range tile by tile, streaming each from its DIMM.
                let mut offset = addr;
                let mut remaining = bytes;
                while remaining > 0 {
                    let in_tile = (tile - (offset % tile)).min(remaining);
                    let (ch, slot, local) = self.map(offset);
                    let bus_time = self
                        .config
                        .dimm
                        .timing
                        .burst_time()
                        .scaled(in_tile.div_ceil(self.config.dimm.line_bytes));
                    let channel = &mut self.channels[ch];
                    let bus = channel.bus.reserve(now, bus_time);
                    channel.stats.bytes += in_tile;
                    channel.stats.contended += bus.queueing(now);
                    let r =
                        channel.dimms[slot].stream(now, local, in_tile, kind, RowPolicy::OpenPage);
                    start = start.min(r.start);
                    complete = complete.max(r.complete).max(bus.ready);
                    offset += in_tile;
                    remaining -= in_tile;
                }
            }
        }

        Reservation {
            start: if start == SimTime::MAX { now } else { start },
            ready: complete,
            complete,
        }
    }

    /// Direct mutable access to a DIMM (the AIM path, bypassing the channel).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn dimm_mut(&mut self, channel: usize, slot: usize) -> &mut Dimm {
        &mut self.channels[channel].dimms[slot]
    }

    /// Shared view of a DIMM.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn dimm(&self, channel: usize, slot: usize) -> &Dimm {
        &self.channels[channel].dimms[slot]
    }

    /// Host-side bytes that crossed channel `ch`.
    #[must_use]
    pub fn channel_bytes(&self, ch: usize) -> u64 {
        self.channels[ch].stats.bytes
    }

    /// Host-side bytes summed over all channels (memory-channel interconnect
    /// energy is billed per byte).
    #[must_use]
    pub fn total_channel_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.stats.bytes).sum()
    }

    /// Accumulated busy time of channel `ch`'s bus.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    #[must_use]
    pub fn channel_busy(&self, ch: usize) -> SimDuration {
        self.channels[ch].bus.busy_time()
    }

    /// Time requests queued behind other traffic for channel `ch`'s bus.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    #[must_use]
    pub fn channel_contended(&self, ch: usize) -> SimDuration {
        self.channels[ch].stats.contended
    }

    /// Bus queueing time summed over all channels.
    #[must_use]
    pub fn total_contended(&self) -> SimDuration {
        self.channels
            .iter()
            .fold(SimDuration::ZERO, |acc, c| acc + c.stats.contended)
    }

    /// [`MemoryController::total_contended`] expressed in IO-clock cycles of
    /// this controller's DIMMs (DDR4-2400: 1200 MHz), rounded down — the
    /// `ddr.contended_cycles` telemetry gauge.
    #[must_use]
    pub fn contended_cycles(&self) -> u64 {
        let cycle = self.config.dimm.timing.io_clock.cycles(1).as_ps();
        self.total_contended().as_ps() / cycle
    }

    /// Aggregate DRAM statistics over all DIMMs.
    #[must_use]
    pub fn dram_stats(&self) -> crate::ddr::DimmStats {
        let mut total = crate::ddr::DimmStats::default();
        for ch in &self.channels {
            for d in &ch.dimms {
                let s = d.stats();
                total.activations += s.activations;
                total.read_bursts += s.read_bursts;
                total.write_bursts += s.write_bursts;
                total.row_hits += s.row_hits;
                total.bytes += s.bytes;
            }
        }
        total
    }
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("config", &self.config)
            .field("total_channel_bytes", &self.total_channel_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemoryController {
        MemoryController::new(MemoryControllerConfig::paper_mc())
    }

    #[test]
    fn map_cache_line_rotates_across_dimms() {
        let m = mc();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4u64 {
            let (ch, slot, _) = m.map(i * 64);
            seen.insert((ch, slot));
        }
        assert_eq!(seen.len(), 4, "4 consecutive lines hit 4 distinct DIMMs");
    }

    #[test]
    fn map_tile_keeps_tiles_contiguous() {
        let mut m = mc();
        m.set_interleave(Interleave::Tile(1 << 20));
        let (ch0, slot0, local0) = m.map(0);
        let (ch1, slot1, local1) = m.map((1 << 20) - 64);
        assert_eq!((ch0, slot0), (ch1, slot1));
        assert_eq!(local1 - local0, (1 << 20) - 64);
        let (ch2, slot2, _) = m.map(1 << 20);
        assert_ne!((ch0, slot0), (ch2, slot2));
    }

    #[test]
    fn map_local_addresses_stay_in_capacity() {
        let m = mc();
        let cap = m.config().dimm.capacity;
        // Highest host address = 4 DIMMs worth of capacity.
        let top = cap * 4 - 64;
        let (_, _, local) = m.map(top);
        assert!(local < cap);
    }

    #[test]
    fn stream_uses_aggregate_bandwidth() {
        let mut m = mc();
        let bytes: u64 = 256 << 20;
        let r = m.stream(SimTime::ZERO, 0, bytes, AccessKind::Read);
        let secs = (r.complete - SimTime::ZERO).as_secs_f64();
        let achieved = bytes as f64 / secs;
        // 2 channels x 19.2 GB/s = 38.4 GB/s aggregate; expect > 75% of it.
        assert!(achieved > 0.75 * 38.4e9, "achieved {achieved:.3e}");
        assert!(achieved < 38.4e9 * 1.001);
    }

    #[test]
    fn concurrent_streams_halve_throughput() {
        let mut m = mc();
        let bytes: u64 = 64 << 20;
        let solo = {
            let mut m2 = mc();
            m2.stream(SimTime::ZERO, 0, bytes, AccessKind::Read)
                .complete
        };
        let a = m.stream(SimTime::ZERO, 0, bytes, AccessKind::Read);
        let b = m.stream(SimTime::ZERO, 1 << 30, bytes, AccessKind::Read);
        let last = a.complete.max(b.complete);
        let ratio = last.as_ps() as f64 / solo.as_ps() as f64;
        assert!(ratio > 1.7, "channel contention expected, ratio {ratio}");
    }

    #[test]
    fn access_line_reserves_channel_bus() {
        let mut m = mc();
        let a = m.access_line(SimTime::ZERO, 0, AccessKind::Read);
        assert!(a.complete > SimTime::ZERO);
        assert_eq!(m.total_channel_bytes(), 64);
    }

    #[test]
    fn channel_bytes_track_streams() {
        let mut m = mc();
        m.stream(SimTime::ZERO, 0, 1 << 20, AccessKind::Write);
        // Even split across 2 channels.
        assert_eq!(m.channel_bytes(0), m.channel_bytes(1));
        assert_eq!(m.total_channel_bytes(), 1 << 20);
    }

    #[test]
    fn cache_line_stream_beyond_total_capacity_streams_in_chunks() {
        let mut m = mc();
        let capacity = m.dimm_count() as u64 * m.config().dimm.capacity;
        let r = m.stream(SimTime::ZERO, 0, 2 * capacity, AccessKind::Read);
        assert!(r.complete > r.start);
        assert_eq!(m.total_channel_bytes(), 2 * capacity);
        assert_eq!(m.channel_bytes(0), m.channel_bytes(1));
        assert_eq!(m.dram_stats().bytes, 2 * capacity);
    }

    #[test]
    fn dram_stats_aggregate() {
        let mut m = mc();
        m.stream(SimTime::ZERO, 0, 1 << 20, AccessKind::Read);
        let s = m.dram_stats();
        assert_eq!(s.bytes, 1 << 20);
        assert!(s.activations > 0);
        assert_eq!(s.read_bursts, (1 << 20) / 64);
    }

    #[test]
    fn uncontended_access_records_no_queueing() {
        let mut m = mc();
        m.access_line(SimTime::ZERO, 0, AccessKind::Read);
        assert_eq!(m.total_contended(), SimDuration::ZERO);
        assert_eq!(m.contended_cycles(), 0);
    }

    #[test]
    fn concurrent_streams_accumulate_contended_time() {
        let mut m = mc();
        let bytes: u64 = 64 << 20;
        m.stream(SimTime::ZERO, 0, bytes, AccessKind::Read);
        m.stream(SimTime::ZERO, 1 << 30, bytes, AccessKind::Read);
        // The second stream found both channel buses busy, so it queued for
        // roughly the first stream's wire time.
        assert!(m.total_contended() > SimDuration::ZERO);
        assert!(m.contended_cycles() > 0);
        assert_eq!(
            m.total_contended(),
            m.channel_contended(0) + m.channel_contended(1)
        );
    }

    #[test]
    #[should_panic(expected = "tile size")]
    fn bad_tile_size_rejected() {
        let mut m = mc();
        m.set_interleave(Interleave::Tile(100)); // not a line multiple
    }

    #[test]
    fn tile_stream_touches_only_owning_dimms() {
        let mut m = mc();
        m.set_interleave(Interleave::Tile(1 << 20));
        // Stream exactly one tile: only DIMM (0,0) should see traffic.
        m.stream(SimTime::ZERO, 0, 1 << 20, AccessKind::Read);
        assert_eq!(m.dimm(0, 0).stats().bytes, 1 << 20);
        assert_eq!(m.dimm(1, 0).stats().bytes, 0);
        assert_eq!(m.dimm(0, 1).stats().bytes, 0);
    }
}
