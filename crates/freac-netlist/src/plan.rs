//! Compiled execution plans: the netlist flattened into an allocation-free
//! micro-op stream.
//!
//! [`Evaluator`](crate::eval::Evaluator) re-dispatches on
//! [`NodeKind`](crate::graph::NodeKind) for every node of every cycle and
//! returns a freshly allocated output `Vec` per call. An [`ExecPlan`] pays
//! that analysis cost once, at compile time — the same pay-once insight the
//! paper's config-row streaming applies in hardware (one pre-resolved
//! configuration row per fold step, no per-step decision-making):
//!
//! * every operand is resolved to a dense *slot* in one of two state
//!   planes — a packed bit plane of `u64` words and a `u32` word plane —
//!   so there is no `Option<Value>` state and no enum-tagged values;
//! * LUT truth tables are flattened into one contiguous `u64` pool,
//!   referenced by dense offset and classified once for the batch sweep;
//! * the circuit becomes a flat struct-of-arrays stream of micro-ops that
//!   a branch-light loop executes with zero per-cycle allocation
//!   ([`ExecPlan::run_cycle_into`]).
//!
//! On top of the packed bit plane the plan also evaluates batches of
//! independent input vectors per pass: bit-typed logic runs *bit-sliced* —
//! lane `l` of every bit slot belongs to input vector `l`, so one chain of
//! chunk XORs (parity tables) or one Shannon mux tree (any other table,
//! its form decoded once at compile time) evaluates a LUT for a whole
//! chunk of lanes at once — while word-typed ops iterate the lanes of a
//! widened word plane. The chunk is a `[u64; N]` array ([`BatchState`] is
//! generic over `N`), so the same plan sweeps 64 lanes per word (`N = 1`,
//! [`ExecPlan::run_batch_cycle`]), or 256/512 lanes (`N = 4` / `N = 8`,
//! [`ExecPlan::run_wide_batch_cycle`]) with straight-line inner loops the
//! autovectorizer turns into SIMD. Callers that only learn the batch size
//! at runtime dispatch through [`AnyBatchState`].
//!
//! Plan compilation is shared with `freac-fold`: [`PlanBuilder`] exposes
//! the slot assignment and op emission primitives, and the folding crate
//! drives them in *schedule order* (validating dependencies at compile
//! time) while [`compile`] drives them in topological order to reproduce
//! the reference evaluator.

use std::collections::HashMap;

use crate::error::NetlistError;
use crate::graph::{Netlist, NodeId, NodeKind, SignalType, Value};
use crate::level::level_graph;
use crate::truth::TruthTable;

/// Number of independent input vectors one single-word (`N = 1`) batch
/// pass evaluates: the lane count of one `u64` bit-slice.
pub const BATCH_LANES: usize = 64;

/// Widest supported batch chunk, in `u64` words per bit slot.
pub const MAX_BATCH_WORDS: usize = 8;

/// Widest supported batch, in lanes (512 = 8 × 64).
pub const MAX_BATCH_LANES: usize = MAX_BATCH_WORDS * BATCH_LANES;

/// The supported batch widths, in lanes, narrowest first. Each is a
/// monomorphized `[u64; N]` sweep (`N` ∈ {1, 4, 8}); [`AnyBatchState`]
/// picks the narrowest width that fits a runtime lane count.
pub const BATCH_WIDTHS: [usize; 3] = [BATCH_LANES, 4 * BATCH_LANES, MAX_BATCH_LANES];

/// Where a node's runtime value lives: a dense index into the packed bit
/// plane or into the word plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// Bit `index % 64` of word `index / 64` of the bit plane.
    Bit(u32),
    /// Element `index` of the word plane.
    Word(u32),
}

impl Slot {
    /// The signal type stored in this slot.
    pub fn signal_type(self) -> SignalType {
        match self {
            Slot::Bit(_) => SignalType::Bit,
            Slot::Word(_) => SignalType::Word,
        }
    }
}

/// Which op stream an emitted micro-op joins: the main (pre-latch) stream
/// or the post-latch stream (folded bit-output plumbing resolves after the
/// latch and so reads *new* sequential state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Executed before sequential elements latch.
    Main,
    /// Executed after sequential elements latch.
    Post,
}

/// Micro-op opcodes. Operand meaning per code is documented on
/// [`OpStream`]'s fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum OpCode {
    /// Truth-table lookup over bit operands.
    Lut,
    /// `a.wrapping_mul(b).wrapping_add(acc)` over word slots.
    Mac,
    /// Packs bit operands (LSB first) into a word slot.
    Pack,
    /// Extracts one bit of a word slot.
    Unpack,
    /// Copies a bit slot (output nodes, plumbing).
    CopyBit,
    /// Copies a word slot.
    CopyWord,
}

/// The flat micro-op stream in struct-of-arrays layout: four parallel
/// operand columns keep each op record at 17 bytes and let the hot loop
/// stream them sequentially.
#[derive(Debug, Clone, Default)]
struct OpStream {
    /// Opcode per op.
    codes: Vec<OpCode>,
    /// Destination slot index (bit plane for bit-typed results, word plane
    /// for word-typed results — implied by the opcode).
    dst: Vec<u32>,
    /// `Lut`/`Pack`: offset into the operand pool. `Mac`: `a` word slot.
    /// `Unpack`/`CopyBit`/`CopyWord`: source slot.
    a: Vec<u32>,
    /// `Lut`: offset into the table pool. `Mac`: `b` word slot.
    /// `Unpack`: bit index. Others: unused.
    b: Vec<u32>,
    /// `Lut`/`Pack`: operand count. `Mac`: `acc` word slot. Others: unused.
    c: Vec<u32>,
}

impl OpStream {
    fn len(&self) -> usize {
        self.codes.len()
    }

    fn push(&mut self, code: OpCode, dst: u32, a: u32, b: u32, c: u32) {
        self.codes.push(code);
        self.dst.push(dst);
        self.a.push(a);
        self.b.push(b);
        self.c.push(c);
    }

    /// Zipped column iteration: lets the hot loops stream the SoA columns
    /// without per-column bounds checks.
    fn iter(&self) -> impl Iterator<Item = (OpCode, u32, u32, u32, u32)> + '_ {
        self.codes
            .iter()
            .zip(&self.dst)
            .zip(&self.a)
            .zip(&self.b)
            .zip(&self.c)
            .map(|((((&code, &dst), &a), &b), &c)| (code, dst, a, b, c))
    }
}

/// How the batch sweep evaluates one pooled truth table, decided once at
/// plan-compile time so no sweep re-analyses a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LutForm {
    /// `T[row] == parity(row) ^ flip` on every row: an XOR/XNOR chain
    /// (adder sum columns, AES), swept as `flip ^ x0 ^ … ^ x_{n-1}`.
    /// Covers every 0-input (constant) table.
    Parity { flip: u64 },
    /// Any other table of 1–6 inputs, swept as a Shannon mux tree. Level 0
    /// turns each row pair `(T[2j], T[2j+1])` into one of
    /// `{0, !x0, x0, all-ones}` by its 2-bit code — bits `2j..2j+2` of
    /// `codes`, which is the table word itself; each later level `k` muxes
    /// adjacent values on operand `k`.
    Mux { codes: u64 },
    /// More than 6 inputs (pre-mapping netlists only): a per-lane table
    /// lookup, since a `2^n`-leaf tree loses to indexing the lanes.
    Wide,
}

impl LutForm {
    /// Classifies a pooled table.
    fn of(table: &TruthTable) -> Self {
        let n = table.inputs();
        if n > 6 {
            return LutForm::Wide;
        }
        let rows = 1usize << n;
        let row_mask = if n == 6 { u64::MAX } else { (1u64 << rows) - 1 };
        let t = table.words()[0] & row_mask;
        let parity = (0..rows).fold(0u64, |m, row| m | (((row.count_ones() & 1) as u64) << row));
        if t == parity {
            LutForm::Parity { flip: 0 }
        } else if t == !parity & row_mask {
            LutForm::Parity { flip: u64::MAX }
        } else {
            LutForm::Mux { codes: t }
        }
    }
}

/// A netlist (or fold schedule) compiled to a flat execution plan.
///
/// The plan is immutable shared data (`Send + Sync`); all mutable run
/// state lives in a [`PlanState`] / [`BatchState`] owned by the caller, so
/// one compiled plan serves any number of concurrent executions.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// Pre-latch micro-ops.
    ops: OpStream,
    /// Post-latch micro-ops (fold-order output plumbing; empty for plans
    /// compiled in topological order).
    post_ops: OpStream,
    /// Slot-index pool for `Lut`/`Pack` operand lists.
    operands: Vec<u32>,
    /// Flattened truth-table words (`TruthTable::words`), one run per
    /// distinct LUT function (table content and arity).
    tables: Vec<u64>,
    /// Batch-sweep form of every pooled table, parallel to `tables`: the
    /// entry at a run's offset is that table's form, classified once when
    /// the table entered the pool (a wide table's trailing words repeat
    /// [`LutForm::Wide`]).
    lut_forms: Vec<LutForm>,
    /// Sequential bit latches `(src bit slot, dst bit slot)`.
    bit_latches: Vec<(u32, u32)>,
    /// Sequential word latches `(src word slot, dst word slot)`.
    word_latches: Vec<(u32, u32)>,
    /// Primary-input slots in declaration order.
    inputs: Vec<Slot>,
    /// Primary-output slots in declaration order.
    outputs: Vec<Slot>,
    /// Bit slots allocated (plane length is `bit_slots.div_ceil(64)`).
    bit_slots: u32,
    /// Word slots allocated.
    word_slots: u32,
    /// Initial packed bit plane (constants and flip-flop init values).
    bit_init: Vec<u64>,
    /// Initial word plane (constants and register init values).
    word_init: Vec<u32>,
}

/// Mutable single-vector execution state for an [`ExecPlan`].
#[derive(Debug, Clone)]
pub struct PlanState {
    /// Byte-per-slot bit plane (0 or 1): single-vector LUT input gathers
    /// are one indexed load each, with no shift/mask to locate the bit.
    /// (The 64-lane [`BatchState`] uses the packed layout instead, where
    /// one word *is* the 64 lanes.)
    bits: Vec<u8>,
    /// Word plane.
    words: Vec<u32>,
    /// Latch staging (two-phase commit so swap-style feedback reads
    /// pre-latch values).
    bit_stage: Vec<u8>,
    /// Word-latch staging.
    word_stage: Vec<u32>,
    cycles: u64,
}

impl PlanState {
    /// Original clock cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

/// Mutable `N * 64`-lane batch state: lane `l` of every slot belongs to
/// input vector `l`, each lane an independent simulation from power-on
/// state. `N` is the bit-slice width in `u64` words — `N = 1` (the
/// default) is the classic 64-lane state, `N = 4` / `N = 8` widen one
/// sweep to 256 / 512 lanes.
#[derive(Debug, Clone)]
pub struct BatchState<const N: usize = 1> {
    /// One `[u64; N]` chunk per bit slot; bit `l % 64` of word `l / 64`
    /// is lane `l`.
    bits: Vec<[u64; N]>,
    /// Lane-major word plane: word slot `s` occupies
    /// `s * N * 64 .. (s + 1) * N * 64`.
    words: Vec<u32>,
    bit_stage: Vec<[u64; N]>,
    word_stage: Vec<u32>,
    cycles: u64,
}

impl<const N: usize> BatchState<N> {
    /// Original clock cycles executed so far (per lane; lanes advance in
    /// lock-step).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Lanes one pass over this state evaluates (`N * 64`).
    pub const fn lane_capacity() -> usize {
        N * BATCH_LANES
    }
}

/// Runtime-width batch state: wraps one of the supported monomorphized
/// widths ([`BATCH_WIDTHS`]) so callers that only learn the batch size at
/// runtime — the serve coalescer, [`equivalent_on`](crate::eval::equivalent_on)
/// — still execute the straight-line `[u64; N]` loops. Build with
/// [`ExecPlan::new_batch_state_for`], run with
/// [`ExecPlan::run_batch_cycle_any`].
#[derive(Debug, Clone)]
pub enum AnyBatchState {
    /// 64 lanes (one `u64` per bit slot).
    W1(BatchState<1>),
    /// 256 lanes.
    W4(BatchState<4>),
    /// 512 lanes.
    W8(BatchState<8>),
}

impl AnyBatchState {
    /// Lanes one pass over this state evaluates.
    pub fn lane_capacity(&self) -> usize {
        match self {
            AnyBatchState::W1(_) => BATCH_LANES,
            AnyBatchState::W4(_) => 4 * BATCH_LANES,
            AnyBatchState::W8(_) => MAX_BATCH_LANES,
        }
    }

    /// Original clock cycles executed so far.
    pub fn cycles(&self) -> u64 {
        match self {
            AnyBatchState::W1(s) => s.cycles(),
            AnyBatchState::W4(s) => s.cycles(),
            AnyBatchState::W8(s) => s.cycles(),
        }
    }
}

/// Bit count at which the batch `Pack`/`Unpack` paths switch from
/// per-lane assembly to a full 64×64 block transpose: the transpose costs
/// a fixed ~`64 · log2(64)` word ops per block, the per-lane form
/// `64 · bits`, so the crossover sits near 6–8 bits.
const TRANSPOSE_MIN_BITS: usize = 8;

/// In-place 64×64 bit-matrix transpose over the packed lane convention
/// (bit `j` of `m[i]` is element `(i, j)`): afterwards bit `j` of `m[i]`
/// holds what bit `i` of `m[j]` held. Recursive block swap (the
/// Hacker's-Delight butterfly, flipped for LSB-first columns).
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

#[inline]
fn get_bit(bits: &[u64], slot: u32) -> bool {
    (bits[(slot >> 6) as usize] >> (slot & 63)) & 1 == 1
}

#[inline]
fn set_bit(bits: &mut [u64], slot: u32, v: bool) {
    let w = (slot >> 6) as usize;
    let m = 1u64 << (slot & 63);
    if v {
        bits[w] |= m;
    } else {
        bits[w] &= !m;
    }
}

impl ExecPlan {
    /// Fresh single-vector state at power-on values.
    pub fn new_state(&self) -> PlanState {
        let bits = (0..self.bit_slots)
            .map(|s| get_bit(&self.bit_init, s) as u8)
            .collect();
        PlanState {
            bits,
            words: self.word_init.clone(),
            bit_stage: vec![0; self.bit_latches.len().max(1)],
            word_stage: vec![0; self.word_latches.len().max(1)],
            cycles: 0,
        }
    }

    /// Fresh 64-lane batch state, every lane at power-on values.
    pub fn new_batch_state(&self) -> BatchState {
        self.new_wide_batch_state::<1>()
    }

    /// Fresh `N * 64`-lane batch state, every lane at power-on values.
    pub fn new_wide_batch_state<const N: usize>(&self) -> BatchState<N> {
        let lanes = N * BATCH_LANES;
        let mut bits = vec![[0u64; N]; self.bit_slots as usize];
        for (s, chunk) in bits.iter_mut().enumerate() {
            if get_bit(&self.bit_init, s as u32) {
                *chunk = [u64::MAX; N];
            }
        }
        let mut words = vec![0u32; self.word_slots as usize * lanes];
        for (s, &init) in self.word_init.iter().enumerate() {
            words[s * lanes..(s + 1) * lanes].fill(init);
        }
        BatchState {
            bits,
            words,
            bit_stage: vec![[0u64; N]; self.bit_latches.len().max(1)],
            word_stage: vec![0; self.word_latches.len() * lanes + 1],
            cycles: 0,
        }
    }

    /// Fresh batch state at the narrowest supported width
    /// ([`BATCH_WIDTHS`]) that fits `max_lanes` lanes (clamped to
    /// [`MAX_BATCH_LANES`]).
    pub fn new_batch_state_for(&self, max_lanes: usize) -> AnyBatchState {
        if max_lanes <= BATCH_LANES {
            AnyBatchState::W1(self.new_wide_batch_state())
        } else if max_lanes <= 4 * BATCH_LANES {
            AnyBatchState::W4(self.new_wide_batch_state())
        } else {
            AnyBatchState::W8(self.new_wide_batch_state())
        }
    }

    /// Whether the plan carries no sequential state (no latches): batch
    /// lanes and carried-state evaluation are then interchangeable.
    pub fn is_combinational(&self) -> bool {
        self.bit_latches.is_empty() && self.word_latches.is_empty()
    }

    /// Total micro-ops in the flattened streams (compile-time size probe).
    pub fn micro_ops(&self) -> usize {
        self.ops.len() + self.post_ops.len()
    }

    /// Primary inputs expected per cycle.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Primary outputs produced per cycle.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Runs one original clock cycle, writing the primary outputs (in
    /// declaration order) into `out` without allocating: `out` is cleared
    /// and refilled, retaining its capacity across calls.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputCountMismatch`] /
    /// [`NetlistError::InputTypeMismatch`] exactly like the reference
    /// evaluator; the plan itself cannot fail mid-cycle (dependencies were
    /// validated at compile time).
    pub fn run_cycle_into(
        &self,
        state: &mut PlanState,
        inputs: &[Value],
        out: &mut Vec<Value>,
    ) -> Result<(), NetlistError> {
        if inputs.len() != self.inputs.len() {
            return Err(NetlistError::InputCountMismatch {
                expected: self.inputs.len(),
                found: inputs.len(),
            });
        }
        for (i, (&slot, &v)) in self.inputs.iter().zip(inputs).enumerate() {
            match (slot, v) {
                (Slot::Bit(s), Value::Bit(b)) => state.bits[s as usize] = b as u8,
                (Slot::Word(s), Value::Word(w)) => state.words[s as usize] = w,
                _ => return Err(NetlistError::InputTypeMismatch { index: i }),
            }
        }

        self.exec(&self.ops, &mut state.bits, &mut state.words);

        // Two-phase latch: stage every source, then commit, so feedback
        // between sequential elements reads pre-latch values.
        for (i, &(src, _)) in self.bit_latches.iter().enumerate() {
            state.bit_stage[i] = state.bits[src as usize];
        }
        for (i, &(src, _)) in self.word_latches.iter().enumerate() {
            state.word_stage[i] = state.words[src as usize];
        }
        for (i, &(_, dst)) in self.bit_latches.iter().enumerate() {
            state.bits[dst as usize] = state.bit_stage[i];
        }
        for (i, &(_, dst)) in self.word_latches.iter().enumerate() {
            state.words[dst as usize] = state.word_stage[i];
        }

        self.exec(&self.post_ops, &mut state.bits, &mut state.words);
        state.cycles += 1;

        out.clear();
        for &slot in &self.outputs {
            out.push(match slot {
                Slot::Bit(s) => Value::Bit(state.bits[s as usize] != 0),
                Slot::Word(s) => Value::Word(state.words[s as usize]),
            });
        }
        Ok(())
    }

    /// Allocating convenience wrapper over [`ExecPlan::run_cycle_into`].
    ///
    /// # Errors
    ///
    /// Propagates input-shape errors from [`ExecPlan::run_cycle_into`].
    pub fn run_cycle(
        &self,
        state: &mut PlanState,
        inputs: &[Value],
    ) -> Result<Vec<Value>, NetlistError> {
        let mut out = Vec::with_capacity(self.outputs.len());
        self.run_cycle_into(state, inputs, &mut out)?;
        Ok(out)
    }

    /// Runs one original clock cycle for up to [`BATCH_LANES`] independent
    /// input vectors at once (the `N = 1` width of
    /// [`ExecPlan::run_wide_batch_cycle`]).
    ///
    /// # Errors
    ///
    /// Returns input-shape errors for the first offending lane, plus
    /// [`NetlistError::InputCountMismatch`] if more than [`BATCH_LANES`]
    /// lanes are supplied.
    pub fn run_batch_cycle(
        &self,
        state: &mut BatchState,
        lanes: &[Vec<Value>],
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), NetlistError> {
        self.run_wide_batch_cycle::<1>(state, lanes, out)
    }

    /// Runs one original clock cycle at whichever width `state` carries:
    /// the runtime-dispatch face of [`ExecPlan::run_wide_batch_cycle`].
    ///
    /// # Errors
    ///
    /// Exactly [`ExecPlan::run_wide_batch_cycle`]'s, at `state`'s width.
    pub fn run_batch_cycle_any(
        &self,
        state: &mut AnyBatchState,
        lanes: &[Vec<Value>],
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), NetlistError> {
        match state {
            AnyBatchState::W1(s) => self.run_wide_batch_cycle(s, lanes, out),
            AnyBatchState::W4(s) => self.run_wide_batch_cycle(s, lanes, out),
            AnyBatchState::W8(s) => self.run_wide_batch_cycle(s, lanes, out),
        }
    }

    /// Runs one original clock cycle for up to `N * 64` independent input
    /// vectors at once. Lane `l` consumes `lanes[l]` and its outputs land
    /// in `out[l]` (declaration order); `out` is resized and its inner
    /// vectors reused, so steady-state batch evaluation allocates nothing.
    ///
    /// Bit-typed logic evaluates bit-sliced (one parity chain or mux tree
    /// over `[u64; N]` chunks serves all lanes); word-typed ops iterate
    /// the lanes. Every lane carries its own sequential state inside `state`.
    /// Tail lanes (indices at or past `lanes.len()`) keep sweeping
    /// power-on state but are never read back out: outputs, like inputs,
    /// cover exactly the supplied lanes.
    ///
    /// # Errors
    ///
    /// Returns input-shape errors for the first offending lane, plus
    /// [`NetlistError::InputCountMismatch`] if more than `N * 64` lanes
    /// are supplied.
    pub fn run_wide_batch_cycle<const N: usize>(
        &self,
        state: &mut BatchState<N>,
        lanes: &[Vec<Value>],
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), NetlistError> {
        let width = N * BATCH_LANES;
        if lanes.is_empty() || lanes.len() > width {
            return Err(NetlistError::InputCountMismatch {
                expected: width,
                found: lanes.len(),
            });
        }
        for lane in lanes {
            if lane.len() != self.inputs.len() {
                return Err(NetlistError::InputCountMismatch {
                    expected: self.inputs.len(),
                    found: lane.len(),
                });
            }
        }
        for (i, &slot) in self.inputs.iter().enumerate() {
            match slot {
                Slot::Bit(s) => {
                    let mut w = [0u64; N];
                    for (l, lane) in lanes.iter().enumerate() {
                        let b = lane[i]
                            .as_bit()
                            .ok_or(NetlistError::InputTypeMismatch { index: i })?;
                        w[l >> 6] |= (b as u64) << (l & 63);
                    }
                    state.bits[s as usize] = w;
                }
                Slot::Word(s) => {
                    let base = s as usize * width;
                    for (l, lane) in lanes.iter().enumerate() {
                        state.words[base + l] = lane[i]
                            .as_word()
                            .ok_or(NetlistError::InputTypeMismatch { index: i })?;
                    }
                }
            }
        }

        self.exec_batch(&self.ops, &mut state.bits, &mut state.words);

        for (i, &(src, _)) in self.bit_latches.iter().enumerate() {
            state.bit_stage[i] = state.bits[src as usize];
        }
        for (i, &(src, _)) in self.word_latches.iter().enumerate() {
            let base = src as usize * width;
            state.word_stage[i * width..(i + 1) * width]
                .copy_from_slice(&state.words[base..base + width]);
        }
        for (i, &(_, dst)) in self.bit_latches.iter().enumerate() {
            state.bits[dst as usize] = state.bit_stage[i];
        }
        for (i, &(_, dst)) in self.word_latches.iter().enumerate() {
            let base = dst as usize * width;
            state.words[base..base + width]
                .copy_from_slice(&state.word_stage[i * width..(i + 1) * width]);
        }

        self.exec_batch(&self.post_ops, &mut state.bits, &mut state.words);
        state.cycles += 1;

        out.resize_with(lanes.len(), Vec::new);
        for (l, lane_out) in out.iter_mut().enumerate() {
            lane_out.clear();
            for &slot in &self.outputs {
                lane_out.push(match slot {
                    Slot::Bit(s) => {
                        Value::Bit((state.bits[s as usize][l >> 6] >> (l & 63)) & 1 == 1)
                    }
                    Slot::Word(s) => Value::Word(state.words[s as usize * width + l]),
                });
            }
        }
        Ok(())
    }

    /// The branch-light single-vector inner loop.
    fn exec(&self, stream: &OpStream, bits: &mut [u8], words: &mut [u32]) {
        for (code, dst, a, b, c) in stream.iter() {
            match code {
                OpCode::Lut => {
                    let off = a as usize;
                    let mut row = 0usize;
                    for (k, &slot) in self.operands[off..off + c as usize].iter().enumerate() {
                        row |= (bits[slot as usize] as usize) << k;
                    }
                    let t = b as usize;
                    bits[dst as usize] = ((self.tables[t + (row >> 6)] >> (row & 63)) & 1) as u8;
                }
                OpCode::Mac => {
                    let x = words[a as usize];
                    let y = words[b as usize];
                    let acc = words[c as usize];
                    words[dst as usize] = x.wrapping_mul(y).wrapping_add(acc);
                }
                OpCode::Pack => {
                    let off = a as usize;
                    let mut w = 0u32;
                    for (k, &slot) in self.operands[off..off + c as usize].iter().enumerate() {
                        w |= (bits[slot as usize] as u32) << k;
                    }
                    words[dst as usize] = w;
                }
                OpCode::Unpack => {
                    bits[dst as usize] = ((words[a as usize] >> b) & 1) as u8;
                }
                OpCode::CopyBit => {
                    bits[dst as usize] = bits[a as usize];
                }
                OpCode::CopyWord => {
                    words[dst as usize] = words[a as usize];
                }
            }
        }
    }

    /// The `N * 64`-lane batch inner loop: bit-sliced for bit logic, lane
    /// loops for word arithmetic. All chunk loops run over `[u64; N]`
    /// arrays with no cross-iteration dependency, so the autovectorizer
    /// widens them to whatever SIMD the target offers.
    ///
    /// Consecutive `Lut` ops sharing one pooled truth table (common after
    /// tech-mapping: adder/xor columns all compile to the same LUT
    /// function, and [`compile`] groups them) execute as a *fused run*
    /// over the table's [`LutForm`], classified once at compile time:
    /// parity tables (XOR/XNOR chains, everywhere in adders and AES)
    /// sweep as a chain of chunk XORs, every other table of at most 6
    /// inputs as a Shannon mux tree ([`ExecPlan::mux_run`]: `2^(n-1) - 1`
    /// chunk muxes above the level-0 leaves its codes select), and wider
    /// pre-mapping tables by per-lane lookup. Nothing in the sweep
    /// re-analyses a table.
    ///
    /// Consecutive word ops (`Mac`/`CopyWord` — region-blocked scheduling
    /// groups them) execute lane-block-wise: each 64-lane column of the
    /// run completes before the next starts, keeping a dependent chain's
    /// working set at 64 lanes regardless of `N` instead of streaming
    /// `N * 64`-lane planes through cache once per op.
    fn exec_batch<const N: usize>(
        &self,
        stream: &OpStream,
        bits: &mut [[u64; N]],
        words: &mut [u32],
    ) {
        let width = N * BATCH_LANES;
        let len = stream.len();
        let mut i = 0usize;
        while i < len {
            let dst = stream.dst[i] as usize;
            match stream.codes[i] {
                OpCode::Lut => {
                    let t = stream.b[i] as usize;
                    // Fused run: every following op on the same pooled
                    // table (hence the same arity) shares its form.
                    let mut end = i + 1;
                    while end < len
                        && stream.codes[end] == OpCode::Lut
                        && stream.b[end] as usize == t
                    {
                        end += 1;
                    }
                    let n = stream.c[i] as usize;
                    match self.lut_forms[t] {
                        LutForm::Parity { flip } => {
                            for op in i..end {
                                let off = stream.a[op] as usize;
                                let mut acc = [flip; N];
                                for &slot in &self.operands[off..off + n] {
                                    let v = &bits[slot as usize];
                                    for x in 0..N {
                                        acc[x] ^= v[x];
                                    }
                                }
                                bits[stream.dst[op] as usize] = acc;
                            }
                        }
                        LutForm::Mux { codes } => {
                            let run = i..end;
                            match n {
                                1 => self.mux_run::<N, 1>(stream, run, codes, bits),
                                2 => self.mux_run::<N, 2>(stream, run, codes, bits),
                                3 => self.mux_run::<N, 3>(stream, run, codes, bits),
                                4 => self.mux_run::<N, 4>(stream, run, codes, bits),
                                5 => self.mux_run::<N, 5>(stream, run, codes, bits),
                                6 => self.mux_run::<N, 6>(stream, run, codes, bits),
                                _ => unreachable!("mux-tree tables have 1-6 inputs"),
                            }
                        }
                        LutForm::Wide => {
                            for op in i..end {
                                let ins = &self.operands[stream.a[op] as usize..][..n];
                                let mut acc = [0u64; N];
                                for l in 0..width {
                                    let (w, sh) = (l >> 6, l & 63);
                                    let mut row = 0usize;
                                    for (k, &slot) in ins.iter().enumerate() {
                                        row |= (((bits[slot as usize][w] >> sh) & 1) as usize) << k;
                                    }
                                    acc[w] |=
                                        ((self.tables[t + (row >> 6)] >> (row & 63)) & 1) << sh;
                                }
                                bits[stream.dst[op] as usize] = acc;
                            }
                        }
                    }
                    i = end;
                    continue;
                }
                OpCode::Mac | OpCode::CopyWord => {
                    // Word run: lane-block the whole stretch so dependent
                    // chains stay L1-resident at every width.
                    let mut end = i + 1;
                    while end < len && matches!(stream.codes[end], OpCode::Mac | OpCode::CopyWord) {
                        end += 1;
                    }
                    for base in (0..width).step_by(BATCH_LANES) {
                        for op in i..end {
                            let db = stream.dst[op] as usize * width + base;
                            match stream.codes[op] {
                                OpCode::Mac => {
                                    let ab = stream.a[op] as usize * width + base;
                                    let bb = stream.b[op] as usize * width + base;
                                    let cb = stream.c[op] as usize * width + base;
                                    for j in 0..BATCH_LANES {
                                        words[db + j] = words[ab + j]
                                            .wrapping_mul(words[bb + j])
                                            .wrapping_add(words[cb + j]);
                                    }
                                }
                                OpCode::CopyWord => {
                                    let sb = stream.a[op] as usize * width + base;
                                    words.copy_within(sb..sb + BATCH_LANES, db);
                                }
                                _ => unreachable!("word run only holds Mac/CopyWord"),
                            }
                        }
                    }
                    i = end;
                    continue;
                }
                OpCode::Pack => {
                    // One pass per 64-lane chunk: hoist each operand's
                    // chunk word once, then either transpose the 64×64
                    // bit block (wide packs — one O(64·log 64) shuffle
                    // instead of `64 · operand count` bit extracts) or
                    // assemble each lane's value in a register (narrow
                    // packs, where the transpose doesn't pay for itself).
                    // Either way each destination lane is stored exactly
                    // once — no `operand count + 1` read-modify-write
                    // sweeps over the destination row.
                    let off = stream.a[i] as usize;
                    let n = stream.c[i] as usize;
                    let ins = &self.operands[off..off + n];
                    let db = dst * width;
                    // `w` also offsets the lane-major word plane, so the
                    // index form beats iterating `bits` here.
                    #[allow(clippy::needless_range_loop)]
                    for w in 0..N {
                        let mut ms = [0u64; 64];
                        for (k, &slot) in ins.iter().enumerate() {
                            ms[k] = bits[slot as usize][w];
                        }
                        let base = db + w * BATCH_LANES;
                        let out = &mut words[base..base + BATCH_LANES];
                        if n >= TRANSPOSE_MIN_BITS {
                            transpose64(&mut ms);
                            for (o, &m) in out.iter_mut().zip(&ms) {
                                *o = m as u32;
                            }
                        } else {
                            for (j, o) in out.iter_mut().enumerate() {
                                let mut packed = 0u32;
                                for (k, m) in ms[..n].iter().enumerate() {
                                    packed |= (((m >> j) & 1) as u32) << k;
                                }
                                *o = packed;
                            }
                        }
                    }
                }
                OpCode::Unpack => {
                    // Fused run: tech-mapped word logic unpacks *every*
                    // bit of a word in sequence, so consecutive Unpacks
                    // of one source slot transpose each 64-lane block
                    // once and hand every op in the run its row — the
                    // naive form re-reads all lanes once per bit.
                    let src = stream.a[i] as usize;
                    let mut end = i + 1;
                    while end < len
                        && stream.codes[end] == OpCode::Unpack
                        && stream.a[end] as usize == src
                    {
                        end += 1;
                    }
                    let sb = src * width;
                    #[allow(clippy::needless_range_loop)]
                    for w in 0..N {
                        let base = sb + w * BATCH_LANES;
                        let lanes = &words[base..base + BATCH_LANES];
                        if end - i >= TRANSPOSE_MIN_BITS {
                            let mut m = [0u64; 64];
                            for (j, &word) in lanes.iter().enumerate() {
                                m[j] = word as u64;
                            }
                            transpose64(&mut m);
                            for op in i..end {
                                bits[stream.dst[op] as usize][w] = m[stream.b[op] as usize];
                            }
                        } else {
                            for op in i..end {
                                let bit = stream.b[op];
                                let mut m = 0u64;
                                for (j, &word) in lanes.iter().enumerate() {
                                    m |= (((word >> bit) & 1) as u64) << j;
                                }
                                bits[stream.dst[op] as usize][w] = m;
                            }
                        }
                    }
                    i = end;
                    continue;
                }
                OpCode::CopyBit => {
                    bits[dst] = bits[stream.a[i] as usize];
                }
            }
            i += 1;
        }
    }

    /// Sweeps one fused run of `K`-input mux-tree LUTs (`1 <= K <= 6`)
    /// sharing the level-0 `codes`. Each op hoists its operand chunks
    /// into stack locals, then:
    ///
    /// * level 0 turns row pair `j`'s 2-bit code `(T[2j], T[2j+1])` into
    ///   its leaf `{0, !x0, x0, all-ones}`, branch-free as
    ///   `lo ^ (d & x0)` with `lo = -T[2j]` and `d = -(T[2j] ^ T[2j+1])`;
    /// * each later level `k` muxes adjacent values on operand `k` as
    ///   `lo ^ ((lo ^ hi) & x_k)`: `2^(K-1) - 1` chunk muxes in all, 7 for
    ///   a 4-LUT.
    ///
    /// Leaves are muxed on `x1` as soon as a pair is built, so only the
    /// `2^(K-2)` level-1 values ever reach the scratch array.
    fn mux_run<const N: usize, const K: usize>(
        &self,
        stream: &OpStream,
        run: std::ops::Range<usize>,
        codes: u64,
        bits: &mut [[u64; N]],
    ) {
        let mut level = [[0u64; N]; 16];
        for op in run {
            let off = stream.a[op] as usize;
            let mut v = [[0u64; N]; K];
            for (vk, &slot) in v.iter_mut().zip(&self.operands[off..off + K]) {
                *vk = bits[slot as usize];
            }
            let leaf = |j: usize| {
                let c = codes >> (2 * j);
                let lo = (c & 1).wrapping_neg();
                let d = ((c ^ (c >> 1)) & 1).wrapping_neg();
                let mut out = [0u64; N];
                for x in 0..N {
                    out[x] = lo ^ (d & v[0][x]);
                }
                out
            };
            if K == 1 {
                bits[stream.dst[op] as usize] = leaf(0);
                continue;
            }
            let mut width = 1usize << (K - 2);
            for (q, slot) in level[..width].iter_mut().enumerate() {
                let (lo, hi) = (leaf(2 * q), leaf(2 * q + 1));
                for x in 0..N {
                    slot[x] = lo[x] ^ ((lo[x] ^ hi[x]) & v[1][x]);
                }
            }
            for xk in &v[2..] {
                width /= 2;
                for j in 0..width {
                    let (lo, hi) = (level[2 * j], level[2 * j + 1]);
                    for x in 0..N {
                        level[j][x] = lo[x] ^ ((lo[x] ^ hi[x]) & xk[x]);
                    }
                }
            }
            bits[stream.dst[op] as usize] = level[0];
        }
    }
}

/// Incrementally lowers a validated netlist into an [`ExecPlan`].
///
/// [`compile`] drives the builder in topological order (the reference
/// evaluator's semantics); `freac-fold` drives it in schedule order,
/// emitting each free-plumbing chain at its first reference in the pass.
#[derive(Debug)]
pub struct PlanBuilder<'a> {
    netlist: &'a Netlist,
    /// Slot of every node.
    slots: Vec<Slot>,
    /// Table-pool offset per node (`u32::MAX` until first emission).
    table_off: Vec<u32>,
    /// Table-pool offset by *function* (table content and arity): distinct
    /// nodes computing the same LUT function share one pool run and one
    /// [`LutForm`], which both shrinks the pool and lets the batch engine
    /// sweep them as one fused run.
    table_index: HashMap<TruthTable, u32>,
    main: OpStream,
    post: OpStream,
    operands: Vec<u32>,
    tables: Vec<u64>,
    lut_forms: Vec<LutForm>,
    bit_latches: Vec<(u32, u32)>,
    word_latches: Vec<(u32, u32)>,
    bit_slots: u32,
    word_slots: u32,
    bit_init: Vec<u64>,
    word_init: Vec<u32>,
}

impl<'a> PlanBuilder<'a> {
    /// Validates the netlist, assigns every node a dense slot in its
    /// plane, and seeds the initial planes with constants and power-on
    /// register values.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::validate`] failures.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        netlist.validate()?;
        let mut slots = Vec::with_capacity(netlist.len());
        let (mut bit_slots, mut word_slots) = (0u32, 0u32);
        for node in netlist.nodes() {
            match node.kind.output_type() {
                SignalType::Bit => {
                    slots.push(Slot::Bit(bit_slots));
                    bit_slots += 1;
                }
                SignalType::Word => {
                    slots.push(Slot::Word(word_slots));
                    word_slots += 1;
                }
            }
        }
        let mut bit_init = vec![0u64; (bit_slots as usize).div_ceil(64).max(1)];
        let mut word_init = vec![0u32; word_slots as usize];
        for (i, node) in netlist.nodes().iter().enumerate() {
            match (&node.kind, slots[i]) {
                (NodeKind::ConstBit(v), Slot::Bit(s)) => set_bit(&mut bit_init, s, *v),
                (NodeKind::Ff { init }, Slot::Bit(s)) => set_bit(&mut bit_init, s, *init),
                (NodeKind::ConstWord(w), Slot::Word(s)) => word_init[s as usize] = *w,
                (NodeKind::WordReg { init }, Slot::Word(s)) => word_init[s as usize] = *init,
                _ => {}
            }
        }
        Ok(PlanBuilder {
            netlist,
            slots,
            table_off: vec![u32::MAX; netlist.len()],
            table_index: HashMap::new(),
            main: OpStream::default(),
            post: OpStream::default(),
            operands: Vec::new(),
            tables: Vec::new(),
            lut_forms: Vec::new(),
            bit_latches: Vec::new(),
            word_latches: Vec::new(),
            bit_slots,
            word_slots,
            bit_init,
            word_init,
        })
    }

    /// The slot assigned to `id`.
    pub fn slot(&self, id: NodeId) -> Slot {
        self.slots[id.index()]
    }

    fn raw(&self, id: NodeId) -> u32 {
        match self.slots[id.index()] {
            Slot::Bit(s) | Slot::Word(s) => s,
        }
    }

    /// Emits the micro-op computing node `id` into `segment`. Source
    /// nodes — inputs, constants, sequential elements — need no op (their
    /// slots are written by the input prologue, the initial planes, or the
    /// latch phase) and emit nothing.
    pub fn emit(&mut self, id: NodeId, segment: Segment) {
        let node = &self.netlist.nodes()[id.index()];
        let dst = self.raw(id);
        let op = match &node.kind {
            NodeKind::BitInput { .. }
            | NodeKind::WordInput { .. }
            | NodeKind::ConstBit(_)
            | NodeKind::ConstWord(_)
            | NodeKind::Ff { .. }
            | NodeKind::WordReg { .. } => return,
            NodeKind::Lut(table) => {
                let toff = if self.table_off[id.index()] != u32::MAX {
                    self.table_off[id.index()]
                } else {
                    let off = match self.table_index.get(table) {
                        Some(&off) => off,
                        None => {
                            let off = self.tables.len() as u32;
                            self.tables.extend_from_slice(table.words());
                            self.lut_forms.push(LutForm::of(table));
                            self.lut_forms.resize(self.tables.len(), LutForm::Wide);
                            self.table_index.insert(table.clone(), off);
                            off
                        }
                    };
                    self.table_off[id.index()] = off;
                    off
                };
                let off = self.operands.len() as u32;
                for &inp in &node.inputs {
                    let s = self.raw(inp);
                    self.operands.push(s);
                }
                (OpCode::Lut, dst, off, toff, node.inputs.len() as u32)
            }
            NodeKind::Mac => (
                OpCode::Mac,
                dst,
                self.raw(node.inputs[0]),
                self.raw(node.inputs[1]),
                self.raw(node.inputs[2]),
            ),
            NodeKind::Pack => {
                let off = self.operands.len() as u32;
                for &inp in &node.inputs {
                    let s = self.raw(inp);
                    self.operands.push(s);
                }
                (OpCode::Pack, dst, off, 0, node.inputs.len() as u32)
            }
            NodeKind::Unpack { bit } => (OpCode::Unpack, dst, self.raw(node.inputs[0]), *bit, 0),
            NodeKind::BitOutput { .. } => (OpCode::CopyBit, dst, self.raw(node.inputs[0]), 0, 0),
            NodeKind::WordOutput { .. } => (OpCode::CopyWord, dst, self.raw(node.inputs[0]), 0, 0),
        };
        let stream = match segment {
            Segment::Main => &mut self.main,
            Segment::Post => &mut self.post,
        };
        stream.push(op.0, op.1, op.2, op.3, op.4);
    }

    /// Records the latch pair of every sequential node (source = its D
    /// input's slot, destination = its own slot).
    pub fn latch_all(&mut self) {
        for (i, node) in self.netlist.nodes().iter().enumerate() {
            if !node.kind.is_sequential() {
                continue;
            }
            let src = self.raw(node.inputs[0]);
            let dst = self.raw(NodeId(i as u32));
            match node.kind {
                NodeKind::Ff { .. } => self.bit_latches.push((src, dst)),
                NodeKind::WordReg { .. } => self.word_latches.push((src, dst)),
                _ => unreachable!("is_sequential covers exactly Ff and WordReg"),
            }
        }
    }

    /// Seals the plan, wiring the primary input/output slot maps.
    pub fn finish(self) -> ExecPlan {
        let inputs = self
            .netlist
            .primary_inputs()
            .iter()
            .map(|&pi| self.slots[pi.index()])
            .collect();
        let outputs = self
            .netlist
            .primary_outputs()
            .iter()
            .map(|&po| self.slots[po.index()])
            .collect();
        ExecPlan {
            ops: self.main,
            post_ops: self.post,
            operands: self.operands,
            tables: self.tables,
            lut_forms: self.lut_forms,
            bit_latches: self.bit_latches,
            word_latches: self.word_latches,
            inputs,
            outputs,
            bit_slots: self.bit_slots,
            word_slots: self.word_slots,
            bit_init: self.bit_init,
            word_init: self.word_init,
        }
    }
}

/// Compiles a netlist into an [`ExecPlan`] with the reference evaluator's
/// semantics: combinational settle in topological order, sequential latch,
/// outputs sampled from settle-time values.
///
/// Dead logic is eliminated: the reference evaluator computes every node
/// each cycle, but only nodes in the transitive input cone of a primary
/// output or of a sequential element's D input are observable, so the plan
/// emits just those. (Builder conveniences such as `word_reg`/`mac` create
/// per-bit unpack views that circuits often never read.)
///
/// Within each ASAP level — whose nodes are independent by construction,
/// so any emission order preserves the evaluator's semantics — micro-ops
/// are blocked by state-plane region: LUTs first (grouped by truth-table
/// content so the batch engine's fused sweep covers whole runs, then by
/// destination slot so bit-plane writes stream), then the remaining
/// bit-plane ops, then word-plane ops. Plans driven in *schedule order*
/// by `freac-fold` are never reordered.
///
/// # Errors
///
/// Returns validation failures and
/// [`NetlistError::CombinationalCycle`] for cyclic netlists — the same
/// conditions under which [`Evaluator::new`](crate::eval::Evaluator::new)
/// panics.
pub fn compile(netlist: &Netlist) -> Result<ExecPlan, NetlistError> {
    let leveled = level_graph(netlist)?;
    let mut b = PlanBuilder::new(netlist)?;
    let mut live = vec![false; netlist.len()];
    let mut stack: Vec<NodeId> = netlist.primary_outputs().to_vec();
    for (i, node) in netlist.nodes().iter().enumerate() {
        if node.kind.is_sequential() {
            stack.push(NodeId(i as u32));
        }
    }
    while let Some(id) = stack.pop() {
        if live[id.index()] {
            continue;
        }
        live[id.index()] = true;
        for &inp in &netlist.nodes()[id.index()].inputs {
            if !live[inp.index()] {
                stack.push(inp);
            }
        }
    }
    // Intern truth tables so the sort key groups same-function LUTs, as
    // the table pool does (interning order is node-id order:
    // deterministic).
    let mut table_rank = vec![0u32; netlist.len()];
    let mut intern: HashMap<&TruthTable, u32> = HashMap::new();
    for (i, node) in netlist.nodes().iter().enumerate() {
        if !live[i] {
            continue;
        }
        if let NodeKind::Lut(table) = &node.kind {
            let next = intern.len() as u32;
            table_rank[i] = *intern.entry(table).or_insert(next);
        }
    }
    let raw_slot: Vec<u32> = (0..netlist.len())
        .map(|i| match b.slot(NodeId(i as u32)) {
            Slot::Bit(s) | Slot::Word(s) => s,
        })
        .collect();
    let region_key = |id: &NodeId| {
        let i = id.index();
        match &netlist.nodes()[i].kind {
            NodeKind::Lut(_) => (0u8, table_rank[i], raw_slot[i]),
            kind if kind.output_type() == SignalType::Bit => (1, 0, raw_slot[i]),
            _ => (2, 0, raw_slot[i]),
        }
    };
    for level in leveled.by_level() {
        let mut block: Vec<NodeId> = level.into_iter().filter(|id| live[id.index()]).collect();
        block.sort_by_key(region_key);
        for id in block {
            b.emit(id, Segment::Main);
        }
    }
    b.latch_all();
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::eval::Evaluator;
    use crate::techmap::{tech_map, TechMapOptions};

    fn compiled_matches_reference(netlist: &Netlist, stimuli: &[Vec<Value>], cycles: usize) {
        let plan = compile(netlist).unwrap();
        let mut state = plan.new_state();
        let mut ev = Evaluator::new(netlist);
        let mut out = Vec::new();
        for v in stimuli {
            for c in 0..cycles {
                plan.run_cycle_into(&mut state, v, &mut out).unwrap();
                let reference = ev.run_cycle(v).unwrap();
                assert_eq!(out, reference, "cycle {c} diverged");
            }
        }
        assert_eq!(state.cycles(), (stimuli.len() * cycles) as u64);
    }

    #[test]
    fn combinational_adder_matches() {
        let mut b = CircuitBuilder::new("add");
        let a = b.word_input("a", 16);
        let c = b.word_input("b", 16);
        let s = b.add(&a, &c);
        b.word_output("s", &s);
        let n = b.finish().unwrap();
        compiled_matches_reference(
            &n,
            &[
                vec![Value::Word(65535), Value::Word(2)],
                vec![Value::Word(12345), Value::Word(999)],
            ],
            1,
        );
    }

    #[test]
    fn sequential_counter_matches() {
        let mut b = CircuitBuilder::new("ctr");
        let (q, h) = b.word_reg(5, 8);
        let next = b.inc(&q);
        b.connect_word_reg(h, &next);
        b.word_output("q", &q);
        let n = b.finish().unwrap();
        compiled_matches_reference(&n, &[vec![]], 6);
    }

    #[test]
    fn mapped_rom_matches() {
        let table: Vec<u32> = (0..256u32).map(|i| i.wrapping_mul(131) & 0xFF).collect();
        let mut b = CircuitBuilder::new("rom");
        let a = b.word_input("a", 8);
        let v = b.rom(&table, a.bits(), 8);
        b.word_output("v", &v);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let stimuli: Vec<Vec<Value>> = [0u32, 1, 127, 200, 255]
            .iter()
            .map(|&x| vec![Value::Word(x)])
            .collect();
        compiled_matches_reference(&n, &stimuli, 1);
    }

    #[test]
    fn mac_and_state_matches() {
        let mut b = CircuitBuilder::new("macpipe");
        let a = b.word_input("a", 32);
        let c = b.word_input("b", 32);
        let (acc, h) = b.word_reg(0, 32);
        let m = b.mac(&a, &c, &acc);
        b.connect_word_reg(h, &m);
        b.word_output("acc", &acc);
        let n = b.finish().unwrap();
        compiled_matches_reference(&n, &[vec![Value::Word(3), Value::Word(5)]], 5);
    }

    #[test]
    fn input_shape_errors_match_reference() {
        let mut b = CircuitBuilder::new("t");
        let a = b.word_input("a", 8);
        b.word_output("o", &a);
        let n = b.finish().unwrap();
        let plan = compile(&n).unwrap();
        let mut st = plan.new_state();
        let mut out = Vec::new();
        assert!(matches!(
            plan.run_cycle_into(&mut st, &[], &mut out),
            Err(NetlistError::InputCountMismatch {
                expected: 1,
                found: 0
            })
        ));
        assert!(matches!(
            plan.run_cycle_into(&mut st, &[Value::Bit(true)], &mut out),
            Err(NetlistError::InputTypeMismatch { index: 0 })
        ));
    }

    #[test]
    fn batch_matches_per_lane_reference() {
        // A sequential datapath: every lane is an independent simulation.
        let mut b = CircuitBuilder::new("acc");
        let x = b.word_input("x", 16);
        let (acc, h) = b.word_reg(0, 16);
        let sum = b.add(&acc, &x);
        b.connect_word_reg(h, &sum);
        b.word_output("acc", &acc);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let plan = compile(&n).unwrap();
        let lanes: Vec<Vec<Value>> = (0..BATCH_LANES as u32)
            .map(|l| vec![Value::Word(l.wrapping_mul(37) & 0xFFFF)])
            .collect();
        let mut state = plan.new_batch_state();
        let mut out = Vec::new();
        let mut refs: Vec<Evaluator> = (0..BATCH_LANES).map(|_| Evaluator::new(&n)).collect();
        for cycle in 0..4 {
            plan.run_batch_cycle(&mut state, &lanes, &mut out).unwrap();
            for (l, reference) in refs.iter_mut().enumerate() {
                let expect = reference.run_cycle(&lanes[l]).unwrap();
                assert_eq!(out[l], expect, "lane {l} cycle {cycle}");
            }
        }
    }

    #[test]
    fn batch_partial_lanes_and_errors() {
        let mut b = CircuitBuilder::new("xor");
        let a = b.word_input("a", 8);
        let c = b.word_input("b", 8);
        let x = b.xor_words(&a, &c);
        b.word_output("x", &x);
        let n = b.finish().unwrap();
        let plan = compile(&n).unwrap();
        assert!(plan.is_combinational());
        let mut state = plan.new_batch_state();
        let mut out = Vec::new();
        let lanes = vec![
            vec![Value::Word(3), Value::Word(5)],
            vec![Value::Word(0xFF), Value::Word(0x0F)],
        ];
        plan.run_batch_cycle(&mut state, &lanes, &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], vec![Value::Word(6)]);
        assert_eq!(out[1], vec![Value::Word(0xF0)]);
        assert!(plan.run_batch_cycle(&mut state, &[], &mut out).is_err());
        let bad = vec![vec![Value::Word(1)]];
        assert!(matches!(
            plan.run_batch_cycle(&mut state, &bad, &mut out),
            Err(NetlistError::InputCountMismatch { .. })
        ));
    }

    #[test]
    fn wide_lut_batch_path_matches() {
        // An 8-input ROM LUT before mapping exercises the per-lane wide-LUT
        // branch of the batch sweep.
        let table: Vec<u32> = (0..256u32).map(|i| (i * i) & 1).collect();
        let mut b = CircuitBuilder::new("widelut");
        let a = b.word_input("a", 8);
        let v = b.rom(&table, a.bits(), 1);
        b.word_output("v", &v);
        let n = b.finish().unwrap();
        let plan = compile(&n).unwrap();
        let lanes: Vec<Vec<Value>> = (0..BATCH_LANES as u32)
            .map(|l| vec![Value::Word((l * 3) & 0xFF)])
            .collect();
        let mut state = plan.new_batch_state();
        let mut out = Vec::new();
        plan.run_batch_cycle(&mut state, &lanes, &mut out).unwrap();
        for (l, lane) in lanes.iter().enumerate() {
            let mut ev = Evaluator::new(&n);
            assert_eq!(out[l], ev.run_cycle(lane).unwrap(), "lane {l}");
        }
    }

    #[test]
    fn wide_batch_matches_per_lane_reference_at_every_width() {
        // Sequential datapath at widths 256 and 512: every lane is an
        // independent simulation, and the wide sweeps must agree with the
        // per-lane reference (and therefore with the 64-lane path).
        let mut b = CircuitBuilder::new("acc");
        let x = b.word_input("x", 16);
        let (acc, h) = b.word_reg(3, 16);
        let sum = b.add(&acc, &x);
        b.connect_word_reg(h, &sum);
        b.word_output("acc", &acc);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let plan = compile(&n).unwrap();

        fn check<const N: usize>(plan: &ExecPlan, n: &Netlist) {
            let width = N * BATCH_LANES;
            let lanes: Vec<Vec<Value>> = (0..width as u32)
                .map(|l| vec![Value::Word(l.wrapping_mul(131).wrapping_add(7) & 0xFFFF)])
                .collect();
            let mut state = plan.new_wide_batch_state::<N>();
            let mut out = Vec::new();
            let mut refs: Vec<Evaluator> = (0..width).map(|_| Evaluator::new(n)).collect();
            for cycle in 0..3 {
                plan.run_wide_batch_cycle(&mut state, &lanes, &mut out)
                    .unwrap();
                assert_eq!(out.len(), width);
                for (l, reference) in refs.iter_mut().enumerate() {
                    let expect = reference.run_cycle(&lanes[l]).unwrap();
                    assert_eq!(out[l], expect, "width {width} lane {l} cycle {cycle}");
                }
            }
            assert_eq!(state.cycles(), 3);
        }
        check::<4>(&plan, &n);
        check::<8>(&plan, &n);
    }

    #[test]
    fn any_batch_state_picks_narrowest_fitting_width() {
        let mut b = CircuitBuilder::new("t");
        let a = b.word_input("a", 8);
        b.word_output("o", &a);
        let plan = compile(&b.finish().unwrap()).unwrap();
        assert_eq!(plan.new_batch_state_for(1).lane_capacity(), 64);
        assert_eq!(plan.new_batch_state_for(64).lane_capacity(), 64);
        assert_eq!(plan.new_batch_state_for(65).lane_capacity(), 256);
        assert_eq!(plan.new_batch_state_for(256).lane_capacity(), 256);
        assert_eq!(plan.new_batch_state_for(257).lane_capacity(), 512);
        assert_eq!(plan.new_batch_state_for(100_000).lane_capacity(), 512);

        // Runtime dispatch runs the width the state carries and rejects
        // overflowing batches.
        let lanes: Vec<Vec<Value>> = (0..100u32).map(|l| vec![Value::Word(l)]).collect();
        let mut state = plan.new_batch_state_for(lanes.len());
        let mut out = Vec::new();
        plan.run_batch_cycle_any(&mut state, &lanes, &mut out)
            .unwrap();
        assert_eq!(state.cycles(), 1);
        assert_eq!(out.len(), 100);
        for (l, o) in out.iter().enumerate() {
            assert_eq!(o[0], Value::Word(l as u32));
        }
        let mut narrow = plan.new_batch_state_for(64);
        assert!(matches!(
            plan.run_batch_cycle_any(&mut narrow, &lanes, &mut out),
            Err(NetlistError::InputCountMismatch {
                expected: 64,
                found: 100
            })
        ));
    }

    #[test]
    fn tail_lanes_never_leak_into_outputs() {
        // Partial batches on a stateful circuit: tail lanes keep sweeping
        // power-on state, but outputs must cover exactly the supplied
        // lanes and match a full-width run lane for lane.
        let mut b = CircuitBuilder::new("acc");
        let x = b.word_input("x", 16);
        let (acc, h) = b.word_reg(41, 16);
        let sum = b.add(&acc, &x);
        b.connect_word_reg(h, &sum);
        b.word_output("acc", &acc);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let plan = compile(&n).unwrap();

        fn check<const N: usize>(plan: &ExecPlan, active: usize) {
            let width = N * BATCH_LANES;
            assert!(active < width);
            let lanes: Vec<Vec<Value>> = (0..active as u32)
                .map(|l| vec![Value::Word(l.wrapping_mul(37) & 0xFFFF)])
                .collect();
            let mut partial = plan.new_wide_batch_state::<N>();
            let mut full = plan.new_wide_batch_state::<N>();
            let mut pout = Vec::new();
            let mut fout = Vec::new();
            let full_lanes: Vec<Vec<Value>> = (0..width)
                .map(|l| {
                    if l < active {
                        lanes[l].clone()
                    } else {
                        vec![Value::Word(0xDEAD)]
                    }
                })
                .collect();
            for _ in 0..3 {
                plan.run_wide_batch_cycle(&mut partial, &lanes, &mut pout)
                    .unwrap();
                plan.run_wide_batch_cycle(&mut full, &full_lanes, &mut fout)
                    .unwrap();
                assert_eq!(pout.len(), active, "outputs must cover exactly the batch");
                assert_eq!(pout[..], fout[..active], "active lanes diverged");
            }
        }
        check::<1>(&plan, 5);
        check::<4>(&plan, 65);
        check::<8>(&plan, 300);
    }

    #[test]
    fn same_function_luts_share_one_table_run() {
        // A ripple-carry adder tech-maps every column to the same pair of
        // LUT functions: the content-deduped pool must stay tiny.
        let mut b = CircuitBuilder::new("add");
        let a = b.word_input("a", 16);
        let c = b.word_input("b", 16);
        let s = b.add(&a, &c);
        b.word_output("s", &s);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let plan = compile(&n).unwrap();
        let distinct: std::collections::HashSet<u64> = plan.tables.iter().copied().collect();
        assert_eq!(
            plan.tables.len(),
            distinct.len(),
            "table pool must hold each function once"
        );
        assert!(
            plan.tables.len() <= 8,
            "16-bit adder needs only a handful of LUT functions, got {}",
            plan.tables.len()
        );
    }

    /// One batch width's worth of stimulus for `n`-input LUTs: lane `l`
    /// drives row `rows[l]`, and each 64-lane word walks every row in its
    /// own order (an odd stride plus a per-word offset).
    struct LaneSet {
        rows: Vec<usize>,
        lanes: Vec<Vec<Value>>,
    }

    fn row_inputs(n: usize, row: usize) -> Vec<Value> {
        (0..n).map(|k| Value::Bit((row >> k) & 1 == 1)).collect()
    }

    impl LaneSet {
        fn new(n: usize, width: usize) -> Self {
            let rows: Vec<usize> = (0..width)
                .map(|l| (l.wrapping_mul(37) + (l >> 6)) & ((1 << n) - 1))
                .collect();
            let lanes = rows.iter().map(|&r| row_inputs(n, r)).collect();
            LaneSet { rows, lanes }
        }
    }

    /// Checks batches of `n`-input tables through every batch-kernel
    /// path: each table becomes one LUT node over the same `n` inputs
    /// (so, distinct tables being distinct pool runs, each is its own
    /// single-op fused run), checked lane by lane against
    /// [`TruthTable::eval`] at widths 64/256/512 and row by row against
    /// the scalar sweep.
    struct TableOracle {
        n: usize,
        sets: (LaneSet, LaneSet, LaneSet),
    }

    impl TableOracle {
        fn new(n: usize) -> Self {
            TableOracle {
                n,
                sets: (
                    LaneSet::new(n, BATCH_LANES),
                    LaneSet::new(n, 4 * BATCH_LANES),
                    LaneSet::new(n, MAX_BATCH_LANES),
                ),
            }
        }

        fn check(&self, tables: &[TruthTable]) {
            let mut b = CircuitBuilder::new("luts");
            let ins: Vec<_> = (0..self.n).map(|k| b.bit_input(&format!("x{k}"))).collect();
            for (i, table) in tables.iter().enumerate() {
                let f = b.lut(table.clone(), &ins);
                b.bit_output(&format!("f{i}"), f);
            }
            let plan = compile(&b.finish().unwrap()).unwrap();
            let expect: Vec<Vec<Value>> = (0..1usize << self.n)
                .map(|row| tables.iter().map(|t| Value::Bit(t.eval(row))).collect())
                .collect();
            let mut state = plan.new_state();
            let mut out = Vec::new();
            for (row, want) in expect.iter().enumerate() {
                plan.run_cycle_into(&mut state, &row_inputs(self.n, row), &mut out)
                    .unwrap();
                assert_eq!(&out, want, "scalar row {row} of {tables:?}");
            }
            Self::sweep::<1>(&plan, &expect, &self.sets.0, tables);
            Self::sweep::<4>(&plan, &expect, &self.sets.1, tables);
            Self::sweep::<8>(&plan, &expect, &self.sets.2, tables);
        }

        fn sweep<const N: usize>(
            plan: &ExecPlan,
            expect: &[Vec<Value>],
            set: &LaneSet,
            tables: &[TruthTable],
        ) {
            let mut state = plan.new_wide_batch_state::<N>();
            let mut out = Vec::new();
            plan.run_wide_batch_cycle(&mut state, &set.lanes, &mut out)
                .unwrap();
            for (l, &row) in set.rows.iter().enumerate() {
                assert!(
                    out[l] == expect[row],
                    "width {} lane {l} row {row}: got {:?}, want {:?} for {tables:?}",
                    N * BATCH_LANES,
                    out[l],
                    expect[row]
                );
            }
        }
    }

    /// Adversarial tables of `n` inputs: constants, parity and its
    /// complement, single minterms and maxterms (first, middle and last
    /// row), and full-word 6-input masks whose top row is set.
    fn adversarial_tables(n: usize) -> Vec<TruthTable> {
        let rows = 1usize << n;
        let from = |f: &dyn Fn(usize) -> bool| TruthTable::from_fn(n, f).unwrap();
        let mut out = vec![
            from(&|_| false),
            from(&|_| true),
            from(&|r| r.count_ones() % 2 == 1),
            from(&|r| r.count_ones() % 2 == 0),
        ];
        for hot in [0, rows / 2 + 1, rows - 1] {
            out.push(from(&|r| r == hot));
            out.push(from(&|r| r != hot));
        }
        if n == 6 {
            for word in [
                u64::MAX,
                1 << 63,
                !(1 << 63),
                0xAAAA_AAAA_AAAA_AAAA,
                0xFFFF_FFFF_0000_0000,
            ] {
                out.push(from(&|r| (word >> r) & 1 == 1));
            }
        }
        out
    }

    #[test]
    fn batch_lut_kernel_matches_every_table() {
        // Every table of 1-4 inputs natively (in chunks of 256 LUTs per
        // plan); under Miri, the 1-3 input tables and one strided chunk
        // of the 4-input ones keep the CI step fast.
        let (stride, random) = if cfg!(miri) { (257, 2) } else { (1, 64) };
        for n in 1..=4usize {
            let oracle = TableOracle::new(n);
            let count = 1u64 << (1 << n);
            let step = if n < 4 { 1 } else { stride };
            let tables: Vec<TruthTable> = (0..count)
                .step_by(step)
                .map(|word| TruthTable::from_fn(n, |r| (word >> r) & 1 == 1).unwrap())
                .collect();
            for chunk in tables.chunks(256) {
                oracle.check(chunk);
            }
        }
        let mut rng = freac_rand::Rng64::new(0x6c75_745f_6b65_726e);
        for n in 5..=6usize {
            let mut tables = adversarial_tables(n);
            for _ in 0..random {
                let word = rng.next_u64();
                tables.push(TruthTable::from_fn(n, |r| (word >> r) & 1 == 1).unwrap());
            }
            TableOracle::new(n).check(&tables);
        }
    }

    #[test]
    fn transpose64_is_a_transpose() {
        let mut m = [0u64; 64];
        for (i, row) in m.iter_mut().enumerate() {
            *row = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(i as u32);
        }
        let orig = m;
        transpose64(&mut m);
        for (i, &row) in m.iter().enumerate() {
            for (j, &orow) in orig.iter().enumerate() {
                assert_eq!((row >> j) & 1, (orow >> i) & 1, "element ({i}, {j})");
            }
        }
        // An involution: transposing twice restores the matrix.
        transpose64(&mut m);
        assert_eq!(m, orig);
    }

    #[test]
    fn plan_reports_shape() {
        let mut b = CircuitBuilder::new("t");
        let a = b.word_input("a", 4);
        let c = b.word_input("b", 4);
        let s = b.add(&a, &c);
        b.word_output("s", &s);
        let plan = compile(&b.finish().unwrap()).unwrap();
        assert_eq!(plan.input_count(), 2);
        assert_eq!(plan.output_count(), 1);
        assert!(plan.micro_ops() > 0);
        assert!(plan.is_combinational());
    }
}
