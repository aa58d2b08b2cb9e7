//! The compute cluster controller (CC Ctrl) and its memory-mapped host
//! interface.
//!
//! FReaC Cache deliberately avoids ISA changes: the host drives the
//! accelerator with plain loads and stores to a reserved per-slice address
//! range (paper Sec. III-C, Fig. 5). This module implements that register
//! file and the six-step offload protocol as an explicit state machine —
//! select ways, flush, lock, write configuration, fill scratchpad, run —
//! accumulating the setup time of each phase.

use freac_cache::{
    coherence::{handoff_charge, ClaimCharge, CoherenceStats, HandoffMode},
    LlcGeometry,
};
use freac_sim::{ClockDomain, DramModel, RingInterconnect, Time};

use crate::error::CoreError;
use crate::partition::SlicePartition;

/// Register offsets within the reserved range (byte addresses).
pub mod regs {
    /// Write: encoded way selection (see [`super::encode_ways`]).
    pub const SELECT: u64 = 0x00;
    /// Write 1: flush the selected ways.
    pub const FLUSH: u64 = 0x08;
    /// Write 1: lock the selected ways into compute/scratchpad mode.
    pub const LOCK: u64 = 0x10;
    /// Write (streaming): configuration words for the compute sub-arrays
    /// and tag-array crossbar store.
    pub const CONFIG_DATA: u64 = 0x18;
    /// Write (streaming): scratchpad fill words.
    pub const SPAD_FILL: u64 = 0x20;
    /// Write: accelerator base-address offset.
    pub const OFFSET: u64 = 0x28;
    /// Write 1: start the accelerators; read: 1 while running.
    pub const RUN: u64 = 0x30;
    /// Read: current state code.
    pub const STATUS: u64 = 0x38;
}

/// Encodes a partition into the SELECT register format.
pub fn encode_ways(p: &SlicePartition) -> u64 {
    (p.compute_ways() as u64)
        | ((p.scratchpad_ways() as u64) << 8)
        | ((p.cache_ways() as u64) << 16)
}

/// Decodes the SELECT register format.
///
/// # Errors
///
/// Returns [`CoreError::BadPartition`] if the encoded split is invalid.
pub fn decode_ways(v: u64) -> Result<SlicePartition, CoreError> {
    SlicePartition::new(
        (v & 0xFF) as usize,
        ((v >> 8) & 0xFF) as usize,
        ((v >> 16) & 0xFF) as usize,
    )
}

/// Protocol state of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlState {
    /// Power-on: the slice is all cache.
    Idle,
    /// Ways selected, not yet flushed.
    Selected,
    /// Selected ways flushed of dirty lines.
    Flushed,
    /// Ways locked into compute/scratchpad mode.
    Locked,
    /// Configuration loaded; scratchpad may be filled.
    Configured,
    /// Accelerators running.
    Running,
    /// Run complete; results may be read back, or new data/config loaded.
    Done,
}

impl CtrlState {
    fn name(self) -> &'static str {
        match self {
            CtrlState::Idle => "idle",
            CtrlState::Selected => "selected",
            CtrlState::Flushed => "flushed",
            CtrlState::Locked => "locked",
            CtrlState::Configured => "configured",
            CtrlState::Running => "running",
            CtrlState::Done => "done",
        }
    }

    fn code(self) -> u64 {
        match self {
            CtrlState::Idle => 0,
            CtrlState::Selected => 1,
            CtrlState::Flushed => 2,
            CtrlState::Locked => 3,
            CtrlState::Configured => 4,
            CtrlState::Running => 5,
            CtrlState::Done => 6,
        }
    }
}

/// Setup-time accounting of the offload flow, in picoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetupTiming {
    /// Flushing dirty lines from the selected ways (bounded by DRAM
    /// bandwidth).
    pub flush_ps: Time,
    /// Streaming the configuration bitstream into sub-arrays/tag arrays.
    pub config_ps: Time,
    /// Filling the scratchpad with the working set.
    pub fill_ps: Time,
}

impl SetupTiming {
    /// Total setup time.
    pub fn total_ps(&self) -> Time {
        self.flush_ps + self.config_ps + self.fill_ps
    }
}

/// Simulated cost of installing an accelerator on a slice and of handing
/// its ways back to the cache afterwards, in picoseconds.
///
/// [`SetupTiming`] is the CC Ctrl's internal accounting of one protocol
/// walk; this is the *public* quotation a scheduler asks for before
/// touching a slice, so reconfiguration can be charged to the tenant that
/// requested it rather than hidden inside trace spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconfigCost {
    /// Flushing dirty lines out of the ways being claimed (SELECT +
    /// FLUSH), bounded by DRAM write bandwidth.
    pub flush_ps: Time,
    /// Streaming the accelerator's configuration bitstream into the
    /// compute sub-arrays and tag-array crossbar store (CONFIG_DATA).
    pub config_ps: Time,
    /// Returning the ways to cache service afterwards: scratchpad
    /// contents are dirty by definition, so reclaim writes them back at
    /// the same DRAM-bound rate a flush would.
    pub reclaim_ps: Time,
}

impl ReconfigCost {
    /// Cost of switching a slice that already holds the partition's ways
    /// from one resident accelerator to another: configuration streaming
    /// only, no flush or reclaim.
    pub fn swap_ps(&self) -> Time {
        self.config_ps
    }

    /// Full setup cost paid the first time the ways are claimed.
    pub fn setup_ps(&self) -> Time {
        self.flush_ps + self.config_ps
    }

    /// Everything: claim, configure, and eventually hand the ways back.
    pub fn total_ps(&self) -> Time {
        self.flush_ps + self.config_ps + self.reclaim_ps
    }
}

/// Quotes the simulated reconfiguration cost of installing `accel` on one
/// slice split by `partition`, assuming `dirty_fraction` of the flushed
/// lines are dirty, with the ways handed over under `mode`.
///
/// The quote is produced by driving a throwaway [`CcCtrl`] through the
/// SELECT → FLUSH → LOCK → CONFIG_DATA protocol with the accelerator's
/// actual bitstream size, so it is pinned to the same state machine the
/// execution path pays. `reclaim_ps` prices handing the scratchpad ways
/// back with a worst-case (all-dirty) fraction. Under
/// [`HandoffMode::ConservativeFlush`] both the claim and the reclaim are
/// blind flushes; the coherent mode prices each as a targeted
/// invalidation burst plus a dirty-line drain (see
/// [`freac_cache::coherence::handoff_charge`]).
///
/// # Errors
///
/// Returns [`CoreError::BadDirtyFraction`] if `dirty_fraction` is outside
/// `[0, 1]` or NaN, and propagates protocol/partition errors from the
/// controller (none occur for a partition already validated by
/// [`SlicePartition::new`]).
pub fn reconfig_cost(
    accel: &crate::accel::Accelerator,
    partition: &SlicePartition,
    dirty_fraction: f64,
    mode: HandoffMode,
) -> Result<ReconfigCost, CoreError> {
    if !(0.0..=1.0).contains(&dirty_fraction) {
        return Err(CoreError::BadDirtyFraction(dirty_fraction));
    }
    let dram = DramModel::ddr4_2400_x4();
    let ring = RingInterconnect::paper_edge();
    let mut ctrl = CcCtrl::with_mode(dirty_fraction, mode);
    ctrl.store(regs::SELECT, encode_ways(partition), &dram)?;
    ctrl.store(regs::FLUSH, 1, &dram)?;
    ctrl.store(regs::LOCK, 1, &dram)?;
    ctrl.store(
        regs::CONFIG_DATA,
        accel.bitstream().total_bytes() as u64,
        &dram,
    )?;
    let t = ctrl.timing();
    // Scratchpad contents are all-dirty by definition; under the protocol
    // the directory still only drains the lines compute actually wrote
    // (the mode's residency), instead of streaming the whole capacity.
    let reclaim_ps = handoff_charge(
        &LlcGeometry::paper_edge(),
        partition.scratchpad_ways(),
        1.0,
        mode,
        &dram,
        &ring,
    )
    .stall_ps;
    Ok(ReconfigCost {
        flush_ps: t.flush_ps,
        config_ps: t.config_ps,
        reclaim_ps,
    })
}

/// Quotes re-splitting a slice's ways from one partition to another — the
/// elastic way-autoscaling step that converts ways between cache service
/// and LUT fabric/scratchpad. `stall_ps` is the simulated cost in
/// picoseconds; the line/message counts are what a server exports under
/// `cache.coh.*`.
///
/// Two handoff charges model the conversion, summed:
///
/// * ways *claimed* from cache service (growth of `compute + scratchpad`)
///   carry `dirty_fraction` dirty lines that must leave before the ways
///   can be locked, at the same rate the SELECT → FLUSH protocol walk
///   pays;
/// * scratchpad ways *returned* to cache service carry all-dirty contents
///   by definition (the same model as [`ReconfigCost::reclaim_ps`]).
///
/// Shrinking pure compute ways back to cache is free: LUT configuration
/// is not architectural state, so the ways only need unlocking. The
/// bitstream re-streaming for whatever accelerator lands on the new
/// partition is charged separately through [`reconfig_cost`]. Under
/// [`HandoffMode::ConservativeFlush`] each charge is a blind flush; under
/// the protocol it is the targeted invalidation + drain cost.
/// `dirty_fraction` is clamped to `[0, 1]`, NaN counting as fully dirty
/// (see [`freac_cache::flush::clamp_dirty_fraction`]).
pub fn way_conversion_charge(
    from: &SlicePartition,
    to: &SlicePartition,
    dirty_fraction: f64,
    mode: HandoffMode,
) -> ClaimCharge {
    let dram = DramModel::ddr4_2400_x4();
    let ring = RingInterconnect::paper_edge();
    let geometry = LlcGeometry::paper_edge();
    let claimed = (to.compute_ways() + to.scratchpad_ways())
        .saturating_sub(from.compute_ways() + from.scratchpad_ways());
    let spad_returned = from.scratchpad_ways().saturating_sub(to.scratchpad_ways());
    let claim = handoff_charge(&geometry, claimed, dirty_fraction, mode, &dram, &ring);
    let reclaim = handoff_charge(&geometry, spad_returned, 1.0, mode, &dram, &ring);
    ClaimCharge {
        lines_touched: claim.lines_touched + reclaim.lines_touched,
        writeback_lines: claim.writeback_lines + reclaim.writeback_lines,
        inval_ps: claim.inval_ps + reclaim.inval_ps,
        writeback_ps: claim.writeback_ps + reclaim.writeback_ps,
        stall_ps: claim.stall_ps + reclaim.stall_ps,
    }
}

/// The per-slice compute cluster controller.
#[derive(Debug, Clone)]
pub struct CcCtrl {
    state: CtrlState,
    partition: Option<SlicePartition>,
    geometry: LlcGeometry,
    clock: ClockDomain,
    config_bytes: u64,
    fill_bytes: u64,
    timing: SetupTiming,
    /// Fraction of lines assumed dirty when flushing (worst case 1.0).
    dirty_fraction: f64,
    /// How the FLUSH step hands the selected ways to compute.
    handoff: HandoffMode,
    /// Protocol traffic accumulated by coherent FLUSH steps.
    coh: CoherenceStats,
}

impl CcCtrl {
    /// A controller for one slice of the paper's LLC, assuming
    /// `dirty_fraction` of flushed lines are dirty. Uses the conservative
    /// whole-claim flush.
    ///
    /// # Panics
    ///
    /// Panics if `dirty_fraction` is outside `[0, 1]`.
    pub fn new(dirty_fraction: f64) -> Self {
        CcCtrl::with_mode(dirty_fraction, HandoffMode::ConservativeFlush)
    }

    /// A controller whose FLUSH step charges the given [`HandoffMode`]:
    /// the conservative mode is byte-identical to [`CcCtrl::new`], the
    /// coherent mode charges the targeted invalidation protocol instead
    /// and accumulates its traffic in [`CcCtrl::coherence_stats`].
    ///
    /// # Panics
    ///
    /// Panics if `dirty_fraction` is outside `[0, 1]`.
    pub fn with_mode(dirty_fraction: f64, handoff: HandoffMode) -> Self {
        assert!((0.0..=1.0).contains(&dirty_fraction));
        CcCtrl {
            state: CtrlState::Idle,
            partition: None,
            geometry: LlcGeometry::paper_edge(),
            clock: ClockDomain::cache_4ghz(),
            config_bytes: 0,
            fill_bytes: 0,
            timing: SetupTiming::default(),
            dirty_fraction,
            handoff,
            coh: CoherenceStats::default(),
        }
    }

    /// Current protocol state.
    pub fn state(&self) -> CtrlState {
        self.state
    }

    /// The active partition, once selected.
    pub fn partition(&self) -> Option<SlicePartition> {
        self.partition
    }

    /// Accumulated setup timing.
    pub fn timing(&self) -> SetupTiming {
        self.timing
    }

    /// Protocol traffic of coherent FLUSH steps (zero under the
    /// conservative mode — a blind flush sends no per-line messages).
    pub fn coherence_stats(&self) -> CoherenceStats {
        self.coh
    }

    /// Handles a host store to a controller register.
    ///
    /// Streaming registers (`CONFIG_DATA`, `SPAD_FILL`) interpret `value`
    /// as a byte count for bulk writes, letting the driver model a burst of
    /// stores with one call.
    ///
    /// # Errors
    ///
    /// Returns protocol violations and unmapped-address errors.
    pub fn store(&mut self, addr: u64, value: u64, dram: &DramModel) -> Result<(), CoreError> {
        match addr {
            regs::SELECT => {
                self.require(&[CtrlState::Idle, CtrlState::Done], "select")?;
                self.partition = Some(decode_ways(value)?);
                self.state = CtrlState::Selected;
                Ok(())
            }
            regs::FLUSH => {
                self.require(&[CtrlState::Selected], "flush")?;
                let p = self.partition.expect("selected state implies partition");
                let ways = p.compute_ways() + p.scratchpad_ways();
                let charge = handoff_charge(
                    &self.geometry,
                    ways,
                    self.dirty_fraction,
                    self.handoff,
                    dram,
                    &RingInterconnect::paper_edge(),
                );
                self.timing.flush_ps += charge.stall_ps;
                if self.handoff.is_coherent() {
                    charge.accumulate_into(&mut self.coh);
                }
                self.state = CtrlState::Flushed;
                Ok(())
            }
            regs::LOCK => {
                self.require(&[CtrlState::Flushed], "lock")?;
                self.state = CtrlState::Locked;
                Ok(())
            }
            regs::CONFIG_DATA => {
                self.require(
                    &[CtrlState::Locked, CtrlState::Configured, CtrlState::Done],
                    "configure",
                )?;
                self.config_bytes += value;
                self.timing.config_ps += self.config_write_time(value);
                self.state = CtrlState::Configured;
                Ok(())
            }
            regs::SPAD_FILL => {
                self.require(&[CtrlState::Configured, CtrlState::Done], "fill scratchpad")?;
                let p = self.partition.expect("configured state implies partition");
                if p.scratchpad_ways() == 0 {
                    return Err(CoreError::BadPartition {
                        reason: "cannot fill a scratchpad with zero ways".into(),
                    });
                }
                self.fill_bytes += value;
                let spad = crate::scratchpad::ScratchpadModel::new(p.scratchpad_ways(), self.clock);
                self.timing.fill_ps += spad.fill_time_ps(value);
                Ok(())
            }
            regs::OFFSET => {
                self.require(&[CtrlState::Configured, CtrlState::Done], "set offset")?;
                Ok(())
            }
            regs::RUN => {
                self.require(&[CtrlState::Configured, CtrlState::Done], "run")?;
                self.state = CtrlState::Running;
                Ok(())
            }
            other => Err(CoreError::UnmappedAddress(other)),
        }
    }

    /// Handles a host load from a controller register.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnmappedAddress`] for non-register addresses.
    pub fn load(&self, addr: u64) -> Result<u64, CoreError> {
        match addr {
            regs::STATUS => Ok(self.state.code()),
            regs::RUN => Ok(u64::from(self.state == CtrlState::Running)),
            regs::SELECT => Ok(self.partition.map_or(0, |p| encode_ways(&p))),
            other => Err(CoreError::UnmappedAddress(other)),
        }
    }

    /// Marks the running accelerators complete (driven by the execution
    /// model once the kernel time elapses).
    ///
    /// # Errors
    ///
    /// Returns a protocol violation unless running.
    pub fn complete_run(&mut self) -> Result<(), CoreError> {
        self.require(&[CtrlState::Running], "complete")?;
        self.state = CtrlState::Done;
        Ok(())
    }

    /// Configuration bytes streamed so far.
    pub fn config_bytes(&self) -> u64 {
        self.config_bytes
    }

    /// Scratchpad bytes filled so far.
    pub fn fill_bytes(&self) -> u64 {
        self.fill_bytes
    }

    /// Time to stream `bytes` of configuration: the CC Ctrl writes via the
    /// existing data buses, 4 bytes per cycle per converted way pair.
    fn config_write_time(&self, bytes: u64) -> Time {
        let pairs = self.partition.map_or(1, |p| (p.compute_ways() / 2).max(1)) as u64;
        let cycles = bytes.div_ceil(4 * pairs);
        self.clock.cycles_to_time(cycles)
    }

    fn require(&self, allowed: &[CtrlState], operation: &'static str) -> Result<(), CoreError> {
        if allowed.contains(&self.state) {
            Ok(())
        } else {
            Err(CoreError::ProtocolViolation {
                operation,
                state: self.state.name(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freac_cache::flush::flush_ways_time;

    fn dram() -> DramModel {
        DramModel::ddr4_2400_x4()
    }

    fn drive_to_configured(ctrl: &mut CcCtrl) {
        let d = dram();
        let p = SlicePartition::end_to_end();
        ctrl.store(regs::SELECT, encode_ways(&p), &d).unwrap();
        ctrl.store(regs::FLUSH, 1, &d).unwrap();
        ctrl.store(regs::LOCK, 1, &d).unwrap();
        ctrl.store(regs::CONFIG_DATA, 64 * 1024, &d).unwrap();
    }

    #[test]
    fn happy_path_flow() {
        let mut c = CcCtrl::new(0.5);
        drive_to_configured(&mut c);
        assert_eq!(c.state(), CtrlState::Configured);
        let d = dram();
        c.store(regs::SPAD_FILL, 128 * 1024, &d).unwrap();
        c.store(regs::RUN, 1, &d).unwrap();
        assert_eq!(c.load(regs::RUN).unwrap(), 1);
        c.complete_run().unwrap();
        assert_eq!(c.state(), CtrlState::Done);
        let t = c.timing();
        assert!(t.flush_ps > 0);
        assert!(t.config_ps > 0);
        assert!(t.fill_ps > 0);
        assert_eq!(t.total_ps(), t.flush_ps + t.config_ps + t.fill_ps);
    }

    #[test]
    fn run_before_configure_rejected() {
        let mut c = CcCtrl::new(0.0);
        let d = dram();
        assert!(matches!(
            c.store(regs::RUN, 1, &d),
            Err(CoreError::ProtocolViolation {
                operation: "run",
                ..
            })
        ));
    }

    #[test]
    fn flush_requires_selection() {
        let mut c = CcCtrl::new(0.0);
        let d = dram();
        assert!(c.store(regs::FLUSH, 1, &d).is_err());
    }

    #[test]
    fn unmapped_address() {
        let mut c = CcCtrl::new(0.0);
        let d = dram();
        assert!(matches!(
            c.store(0x1000, 0, &d),
            Err(CoreError::UnmappedAddress(0x1000))
        ));
        assert!(c.load(0x999).is_err());
    }

    #[test]
    fn clean_flush_is_free() {
        let mut c = CcCtrl::new(0.0);
        let d = dram();
        let p = SlicePartition::max_compute();
        c.store(regs::SELECT, encode_ways(&p), &d).unwrap();
        c.store(regs::FLUSH, 1, &d).unwrap();
        assert_eq!(c.timing().flush_ps, 0);
    }

    #[test]
    fn reconfiguration_after_done() {
        let mut c = CcCtrl::new(0.0);
        drive_to_configured(&mut c);
        let d = dram();
        c.store(regs::RUN, 1, &d).unwrap();
        c.complete_run().unwrap();
        // Steps 4-6 can repeat without re-flushing (paper Fig. 5).
        c.store(regs::CONFIG_DATA, 1024, &d).unwrap();
        c.store(regs::SPAD_FILL, 2048, &d).unwrap();
        c.store(regs::RUN, 1, &d).unwrap();
        assert_eq!(c.state(), CtrlState::Running);
    }

    #[test]
    fn reconfig_cost_is_pinned_to_the_protocol_timing() {
        use crate::accel::Accelerator;
        use crate::tile::AcceleratorTile;
        use freac_netlist::builder::CircuitBuilder;

        let mut b = CircuitBuilder::new("dot");
        let a = b.word_input("a", 32);
        let x = b.word_input("x", 32);
        let (acc, h) = b.word_reg(0, 32);
        let m = b.mac(&a, &x, &acc);
        b.connect_word_reg(h, &m);
        b.word_output("acc", &acc);
        let circuit = b.finish().unwrap();
        let accel = Accelerator::map(&circuit, &AcceleratorTile::new(1).unwrap()).unwrap();

        let p = SlicePartition::end_to_end();
        let cost = reconfig_cost(&accel, &p, 0.5, HandoffMode::ConservativeFlush).unwrap();

        // The quote must equal what a hand-driven protocol walk with the
        // same bitstream accumulates in SetupTiming.
        let d = dram();
        let mut c = CcCtrl::new(0.5);
        c.store(regs::SELECT, encode_ways(&p), &d).unwrap();
        c.store(regs::FLUSH, 1, &d).unwrap();
        c.store(regs::LOCK, 1, &d).unwrap();
        c.store(
            regs::CONFIG_DATA,
            accel.bitstream().total_bytes() as u64,
            &d,
        )
        .unwrap();
        let t = c.timing();
        assert_eq!(cost.flush_ps, t.flush_ps);
        assert_eq!(cost.config_ps, t.config_ps);
        assert!(cost.flush_ps > 0);
        assert!(cost.config_ps > 0);

        // Reclaim is an all-dirty flush of the scratchpad ways.
        assert_eq!(
            cost.reclaim_ps,
            flush_ways_time(&LlcGeometry::paper_edge(), p.scratchpad_ways(), 1.0, &d)
        );
        assert!(cost.reclaim_ps > 0);
        assert_eq!(cost.swap_ps(), cost.config_ps);
        assert_eq!(cost.setup_ps(), cost.flush_ps + cost.config_ps);
        assert_eq!(
            cost.total_ps(),
            cost.flush_ps + cost.config_ps + cost.reclaim_ps
        );

        // Clean ways flush for free; the bitstream still has to stream.
        let clean = reconfig_cost(&accel, &p, 0.0, HandoffMode::ConservativeFlush).unwrap();
        assert_eq!(clean.flush_ps, 0);
        assert_eq!(clean.config_ps, cost.config_ps);
        assert_eq!(clean.reclaim_ps, cost.reclaim_ps);
    }

    #[test]
    fn reconfig_cost_rejects_a_bad_dirty_fraction() {
        use crate::accel::Accelerator;
        use crate::tile::AcceleratorTile;
        use freac_netlist::builder::CircuitBuilder;

        let mut b = CircuitBuilder::new("pass");
        let a = b.word_input("a", 8);
        b.word_output("o", &a);
        let accel =
            Accelerator::map(&b.finish().unwrap(), &AcceleratorTile::new(1).unwrap()).unwrap();
        let p = SlicePartition::end_to_end();
        for mode in [HandoffMode::ConservativeFlush, HandoffMode::coherent()] {
            assert_eq!(
                reconfig_cost(&accel, &p, 1.5, mode),
                Err(CoreError::BadDirtyFraction(1.5))
            );
            assert!(matches!(
                reconfig_cost(&accel, &p, f64::NAN, mode),
                Err(CoreError::BadDirtyFraction(f)) if f.is_nan()
            ));
        }
    }

    #[test]
    fn way_conversion_charge_is_pinned_to_the_flush_model() {
        let d = dram();
        let geometry = LlcGeometry::paper_edge();
        let balanced = SlicePartition::balanced(); // (8, 12, 0)
        let maxed = SlicePartition::max_compute(); // (16, 4, 0)
        let e2e = SlicePartition::end_to_end(); // (8, 10, 2)
        let flush = |from: &SlicePartition, to: &SlicePartition, dirty: f64| {
            way_conversion_charge(from, to, dirty, HandoffMode::ConservativeFlush).stall_ps
        };

        // Identity conversion moves nothing.
        assert_eq!(flush(&balanced, &balanced, 0.5), 0);

        // Growing compute from cache: flush exactly the claimed ways at
        // the requested dirty fraction. (8,10,2) → (10,10,0) claims 2.
        let grown = SlicePartition::new(10, 10, 0).unwrap();
        assert_eq!(
            flush(&e2e, &grown, 0.5),
            flush_ways_time(&geometry, 2, 0.5, &d)
        );
        assert!(flush(&e2e, &grown, 0.5) > 0);
        // Clean claimed ways convert for free.
        assert_eq!(flush(&e2e, &grown, 0.0), 0);

        // Shrinking compute back to cache is free (LUT state needs no
        // writeback), but returning scratchpad ways pays an all-dirty
        // flush regardless of the claimed-way dirty fraction.
        assert_eq!(flush(&grown, &e2e, 0.0), 0);
        let spad_heavy = SlicePartition::new(4, 12, 4).unwrap();
        let spad_light = SlicePartition::new(4, 4, 12).unwrap();
        assert_eq!(
            flush(&spad_heavy, &spad_light, 0.0),
            flush_ways_time(&geometry, 8, 1.0, &d)
        );
        assert!(flush(&spad_heavy, &spad_light, 0.0) > 0);

        // Balanced → max-compute claims 0 extra ways (8+12 == 16+4) but
        // returns 8 scratchpad ways, all dirty.
        assert_eq!(
            flush(&balanced, &maxed, 1.0),
            flush_ways_time(&geometry, 8, 1.0, &d)
        );
    }

    #[test]
    fn coherent_mode_quotes_cheaper_handoffs_than_the_flush() {
        use crate::accel::Accelerator;
        use crate::tile::AcceleratorTile;
        use freac_netlist::builder::CircuitBuilder;

        let mut b = CircuitBuilder::new("dot");
        let a = b.word_input("a", 32);
        let x = b.word_input("x", 32);
        let (acc, h) = b.word_reg(0, 32);
        let m = b.mac(&a, &x, &acc);
        b.connect_word_reg(h, &m);
        b.word_output("acc", &acc);
        let circuit = b.finish().unwrap();
        let accel = Accelerator::map(&circuit, &AcceleratorTile::new(1).unwrap()).unwrap();
        let p = SlicePartition::end_to_end();

        let flat = reconfig_cost(&accel, &p, 0.5, HandoffMode::ConservativeFlush).unwrap();
        let coh = reconfig_cost(&accel, &p, 0.5, HandoffMode::coherent()).unwrap();
        assert!(coh.flush_ps < flat.flush_ps, "targeted claim beats flush");
        assert!(coh.reclaim_ps < flat.reclaim_ps, "targeted reclaim too");
        assert_eq!(coh.config_ps, flat.config_ps, "bitstream cost unchanged");

        // The controller records the protocol traffic it charged.
        let d = dram();
        let mut c = CcCtrl::with_mode(0.5, HandoffMode::coherent());
        c.store(regs::SELECT, encode_ways(&p), &d).unwrap();
        c.store(regs::FLUSH, 1, &d).unwrap();
        let stats = c.coherence_stats();
        assert_eq!(stats.claims, 1);
        assert!(stats.invalidations > 0);
        assert!(stats.writeback_pulls <= stats.invalidations);
        // The conservative controller sends no messages.
        let mut flatc = CcCtrl::new(0.5);
        flatc.store(regs::SELECT, encode_ways(&p), &d).unwrap();
        flatc.store(regs::FLUSH, 1, &d).unwrap();
        assert_eq!(flatc.coherence_stats(), CoherenceStats::default());
    }

    #[test]
    fn coherent_way_conversion_is_cheaper_and_quotes_traffic() {
        let e2e = SlicePartition::end_to_end(); // (8, 10, 2)
        let grown = SlicePartition::new(10, 10, 0).unwrap();
        let flat = way_conversion_charge(&e2e, &grown, 0.5, HandoffMode::ConservativeFlush);
        let coh = way_conversion_charge(&e2e, &grown, 0.5, HandoffMode::coherent());
        assert!(
            coh.stall_ps < flat.stall_ps,
            "coherent {} must beat flush {}",
            coh.stall_ps,
            flat.stall_ps
        );
        assert!(coh.lines_touched > 0);
        assert!(coh.writeback_lines <= coh.lines_touched);
        // Identity conversion is free in both modes.
        assert_eq!(
            way_conversion_charge(&e2e, &e2e, 0.5, HandoffMode::coherent()).stall_ps,
            0
        );
    }

    #[test]
    fn ways_encoding_round_trips() {
        let p = SlicePartition::new(8, 10, 2).unwrap();
        let dec = decode_ways(encode_ways(&p)).unwrap();
        assert_eq!(dec, p);
        assert!(decode_ways(0xFF).is_err());
    }

    #[test]
    fn status_codes_progress() {
        let mut c = CcCtrl::new(0.0);
        let d = dram();
        assert_eq!(c.load(regs::STATUS).unwrap(), 0);
        let p = SlicePartition::balanced();
        c.store(regs::SELECT, encode_ways(&p), &d).unwrap();
        assert_eq!(c.load(regs::STATUS).unwrap(), 1);
    }
}
