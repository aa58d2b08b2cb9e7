//! Compiled execution plans: the netlist flattened into an allocation-free
//! micro-op stream.
//!
//! [`Evaluator`](crate::eval::Evaluator) re-dispatches on [`NodeKind`]
//! for every node of every cycle and returns a freshly allocated output
//! `Vec` per call. An [`ExecPlan`] pays that analysis cost once, at compile
//! time — the same pay-once insight the paper's config-row streaming
//! applies in hardware (one pre-resolved configuration row per fold step,
//! no per-step decision-making):
//!
//! * every operand is resolved to a dense *slot* in one of two state
//!   planes — a bit plane and a `u32` word plane — so there is no
//!   `Option<Value>` state and no enum-tagged values;
//! * every micro-op is one flat 24-byte record, the image of one LUT's
//!   configuration-row entry. A LUT of up to 4 inputs carries its operand
//!   slots inline — padded with a reserved always-zero bit slot — and its
//!   16-row truth table, so the single-vector engine evaluates it with
//!   four byte loads, a shift-or and one table shift. Wider LUTs and
//!   `Pack` keep offsets into an operand pool and a table pool;
//! * each LUT's batch-sweep form is decided at compile time (its opcode
//!   for inline LUTs, a form column beside the table pool otherwise);
//! * the circuit becomes one record stream that a branch-light loop
//!   executes with zero per-cycle allocation
//!   ([`ExecPlan::run_cycle_into`]).
//!
//! Over the same records the plan also evaluates batches of independent
//! input vectors per pass: bit-typed logic runs *bit-sliced* — lane `l` of
//! every bit slot belongs to input vector `l`, so one chain of chunk XORs
//! (parity tables) or one Shannon mux tree (any other table) evaluates a
//! LUT for a whole chunk of lanes at once — while word-typed ops iterate
//! the lanes of a widened word plane. The chunk is a `[u64; N]` array
//! ([`BatchState`] is generic over `N`), so the same plan sweeps 64 lanes
//! per word (`N = 1`, [`ExecPlan::run_batch_cycle`]), or 256/512 lanes
//! (`N = 4` / `N = 8`, [`ExecPlan::run_wide_batch_cycle`]) with
//! straight-line inner loops the autovectorizer turns into SIMD. The
//! default `x86-64` target only promises SSE2, so the sweep is compiled
//! three times — for AVX-512 (`avx512f`, `avx512vl`, with AVX2, BMI1/2
//! and POPCNT), for AVX2, and portably — and each sweep runs the widest
//! variant the host reports ([`batch_isa`]); all three compute the same
//! bits. Word↔bit conversions (`Pack`, `Unpack` runs) transpose 64×64 bit
//! blocks, all `N` chunks of a slot in lock-step, so one butterfly
//! network serves 512 lanes. A pass of several cycles on the same inputs
//! is one call ([`ExecPlan::run_batch_cycles_any`]): the inputs are
//! checked and packed once and only the last cycle's outputs unpacked.
//! Callers
//! that only learn the batch size at runtime dispatch through
//! [`AnyBatchState`], which runs batches of at most
//! [`SCALAR_BATCH_LANES`] lanes per lane on the single-vector engine —
//! a 64-lane sweep costs 2.5–4 scalar runs, so below the cut-over it
//! only wastes lanes — and wider ones on the narrowest bit-sliced width
//! that fits.
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

/// Micro-op opcodes. Operand meaning per code is documented on [`Op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
enum OpCode {
    /// Lookup in the record's inline 16-row table over up to
    /// [`INLINE_LUT_INPUTS`] bit operands; the batch sweep evaluates it as
    /// a Shannon mux tree over the table.
    Lut,
    /// An inline LUT whose table is a parity function (XOR/XNOR chain,
    /// constants included): executed like [`OpCode::Lut`] by the scalar
    /// engine, swept as a chain of chunk XORs by the batch engine.
    Parity,
    /// Lookup in the table pool over pooled operands: LUTs of more than
    /// [`INLINE_LUT_INPUTS`] inputs (5–6 inputs after mapping, up to 16
    /// before).
    PooledLut,
    /// `a.wrapping_mul(b).wrapping_add(acc)` over word slots.
    Mac,
    /// Packs pooled bit operands (LSB first) into a word slot.
    Pack,
    /// Extracts one bit of a word slot.
    Unpack,
    /// Copies a bit slot (output nodes, plumbing).
    CopyBit,
    /// Copies a word slot.
    CopyWord,
}

/// Widest LUT whose operand slots and truth table fit inline in its
/// [`Op`] record.
const INLINE_LUT_INPUTS: usize = 4;

/// One micro-op: a flat 24-byte record, the software image of one LUT's
/// entry in a configuration row. Both engines stream one `Vec<Op>`
/// sequentially; an inline LUT needs nothing outside its record.
///
/// `args` by code:
///
/// * `Lut` / `Parity`: the operand bit slots, padded past the arity `n`
///   with the plan's reserved always-zero bit slot, so the scalar row
///   index is always four byte loads and a shift-or;
/// * `PooledLut`: `[operand pool offset, table pool offset, 0, 0]`;
/// * `Pack`: `[operand pool offset, 0, 0, 0]`;
/// * `Mac`: `[a, b, acc, 0]` word slots;
/// * `Unpack`: `[source word slot, bit index, 0, 0]`;
/// * `CopyBit` / `CopyWord`: `[source slot, 0, 0, 0]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Op {
    code: OpCode,
    /// Operand count of `Lut`/`Parity`/`PooledLut`/`Pack` (validation caps
    /// LUTs at 16 inputs and packs at 32); 0 otherwise.
    n: u8,
    /// `Lut`/`Parity`: the truth table, bit `r` the value on row `r` (rows
    /// at or past `2^n` are 0); 0 otherwise.
    table: u16,
    /// Destination slot (bit plane for bit-typed results, word plane for
    /// word-typed results — implied by the opcode).
    dst: u32,
    args: [u32; 4],
}

/// How the batch sweep evaluates one truth table, decided once at
/// plan-compile time so no sweep re-analyses a table: stored beside the
/// table pool for pooled LUTs, folded into the opcode (`Parity` or `Lut`)
/// for inline ones.
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
    /// Classifies a table.
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
    /// Micro-ops, all run before the latch.
    ops: Vec<Op>,
    /// Slot-index pool for `PooledLut`/`Pack` operand lists.
    operands: Vec<u32>,
    /// Flattened truth-table words (`TruthTable::words`) of the pooled
    /// LUTs, one run per distinct function (table content and arity).
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
    /// Initial bit plane, one byte (0 or 1) per slot — the reserved
    /// always-zero slot included: constants and flip-flop init values.
    bit_init: Vec<u8>,
    /// Initial word plane (constants and register init values).
    word_init: Vec<u32>,
}

/// Mutable single-vector execution state for an [`ExecPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanState {
    /// Byte-per-slot bit plane (0 or 1): single-vector LUT input gathers
    /// are one indexed load each, with no shift/mask to locate the bit.
    /// (The batch [`BatchState`] uses the packed layout instead, where
    /// one word *is* 64 lanes.)
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Runtime-width batch state for callers that only learn the batch size at
/// runtime — the serve coalescer, [`equivalent_on`](crate::eval::equivalent_on).
/// Batches of at most [`SCALAR_BATCH_LANES`] lanes run per lane on the
/// single-vector engine; wider ones run one of the supported monomorphized
/// bit-sliced widths ([`BATCH_WIDTHS`]) with its straight-line `[u64; N]`
/// loops. Build with [`ExecPlan::new_batch_state_for`], run with
/// [`ExecPlan::run_batch_cycle_any`]; [`ExecPlan::reset_batch_state`]
/// returns one to power-on values for the next batch without allocating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnyBatchState {
    /// One single-vector state per lane (1 to [`SCALAR_BATCH_LANES`]).
    Scalar(Vec<PlanState>),
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
            AnyBatchState::Scalar(lanes) => lanes.len(),
            AnyBatchState::W1(_) => BATCH_LANES,
            AnyBatchState::W4(_) => 4 * BATCH_LANES,
            AnyBatchState::W8(_) => MAX_BATCH_LANES,
        }
    }

    /// Original clock cycles executed so far.
    pub fn cycles(&self) -> u64 {
        match self {
            // Every successful cycle runs lane 0.
            AnyBatchState::Scalar(lanes) => lanes[0].cycles(),
            AnyBatchState::W1(s) => s.cycles(),
            AnyBatchState::W4(s) => s.cycles(),
            AnyBatchState::W8(s) => s.cycles(),
        }
    }
}

/// Widest batch [`ExecPlan::new_batch_state_for`] runs per lane on the
/// single-vector engine instead of through a 64-lane bit-sliced sweep.
/// One sweep costs about 2.5 scalar runs on AES and 3–4 on GEMM, KMP and
/// DOT, so per-lane execution wins at two lanes on every cluster kernel
/// and would lose on AES at three.
pub const SCALAR_BATCH_LANES: usize = 2;

/// The compiled variants of the bit-sliced batch sweep, widest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchIsa {
    /// AVX-512F/VL with AVX2, BMI1/2 and POPCNT.
    Avx512,
    /// AVX2.
    Avx2,
    /// Whatever the build target guarantees (SSE2 on default `x86-64`).
    Portable,
}

impl BatchIsa {
    /// The widest variant the running host supports. `std` caches the
    /// CPUID answers, so each check is a load and a bit test.
    #[inline]
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx512f")
                && std::is_x86_feature_detected!("avx512vl")
                && std::is_x86_feature_detected!("avx2")
                && std::is_x86_feature_detected!("bmi1")
                && std::is_x86_feature_detected!("bmi2")
                && std::is_x86_feature_detected!("popcnt")
            {
                return BatchIsa::Avx512;
            }
            if std::is_x86_feature_detected!("avx2") {
                return BatchIsa::Avx2;
            }
        }
        BatchIsa::Portable
    }
}

/// The batch-sweep variant this host runs: `"avx512"`, `"avx2"` or
/// `"portable"`. Chosen at run time, so one binary uses the widest vector
/// unit of whatever x86-64 host it lands on; results never depend on it.
pub fn batch_isa() -> &'static str {
    match BatchIsa::detect() {
        BatchIsa::Avx512 => "avx512",
        BatchIsa::Avx2 => "avx2",
        BatchIsa::Portable => "portable",
    }
}

/// Sets `v` to `len` copies of `value`, reusing its buffer.
fn refill<T: Copy>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// Bit count below which the batch sweep assembles lanes one by one
/// instead of transposing 64×64 bit blocks: a transpose costs a fixed
/// `6 · 32` butterfly steps per slot, the per-lane form `64 · bits` per
/// 64-lane chunk. It applies to `Unpack` runs at every width — the fold
/// plans' 1–4-op runs sweep 2–3x slower transposed — and to `Pack` only
/// at `N = 1`: at `N` = 4 and 8 one lock-step transpose serves every
/// chunk and beats the per-lane form even at 2 bits (KMP, 512 lanes:
/// about 13 vs 11 ns per lane-cycle).
const TRANSPOSE_MIN_BITS: usize = 8;

/// In-place 64×64 bit-matrix transpose of `N` matrices in lock-step over
/// the packed lane convention: matrix `x` is word `x` of every row (bit
/// `j` of `m[i][x]` is its element `(i, j)`), and afterwards bit `j` of
/// `m[i][x]` holds what bit `i` of `m[j][x]` held. Recursive block swap
/// (the Hacker's-Delight butterfly, flipped for LSB-first columns), each
/// step one `[u64; N]` operation — one `zmm` at `N = 8` — so the `N`
/// 64-lane chunks of a slot cost one butterfly network, not `N`.
#[inline(always)]
fn transpose64<const N: usize>(m: &mut [[u64; N]; 64]) {
    let mut j = 32usize;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let (mut lo, mut hi) = (m[k], m[k + j]);
            for x in 0..N {
                let t = ((lo[x] >> j) ^ hi[x]) & mask;
                lo[x] ^= t << j;
                hi[x] ^= t;
            }
            (m[k], m[k + j]) = (lo, hi);
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

impl ExecPlan {
    /// Fresh single-vector state at power-on values.
    pub fn new_state(&self) -> PlanState {
        PlanState {
            bits: self.bit_init.clone(),
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
        let bits = self
            .bit_init
            .iter()
            .map(|&b| [u64::from(b).wrapping_neg(); N])
            .collect();
        let mut words = vec![0u32; self.word_init.len() * lanes];
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

    /// Fresh batch state for up to `max_lanes` lanes: one single-vector
    /// state per lane when `max_lanes` is at most [`SCALAR_BATCH_LANES`]
    /// (at least one lane), else the narrowest bit-sliced width
    /// ([`BATCH_WIDTHS`]) that fits (clamped to [`MAX_BATCH_LANES`]).
    pub fn new_batch_state_for(&self, max_lanes: usize) -> AnyBatchState {
        if max_lanes <= SCALAR_BATCH_LANES {
            AnyBatchState::Scalar((0..max_lanes.max(1)).map(|_| self.new_state()).collect())
        } else if max_lanes <= BATCH_LANES {
            AnyBatchState::W1(self.new_wide_batch_state())
        } else if max_lanes <= 4 * BATCH_LANES {
            AnyBatchState::W4(self.new_wide_batch_state())
        } else {
            AnyBatchState::W8(self.new_wide_batch_state())
        }
    }

    /// Returns `state` to the power-on values [`ExecPlan::new_state`]
    /// builds, reusing its buffers.
    fn reset_state(&self, state: &mut PlanState) {
        state.bits.clear();
        state.bits.extend_from_slice(&self.bit_init);
        state.words.clear();
        state.words.extend_from_slice(&self.word_init);
        refill(&mut state.bit_stage, self.bit_latches.len().max(1), 0);
        refill(&mut state.word_stage, self.word_latches.len().max(1), 0);
        state.cycles = 0;
    }

    /// Returns `state` to the power-on values
    /// [`ExecPlan::new_wide_batch_state`] builds, reusing its buffers.
    fn reset_wide_batch_state<const N: usize>(&self, state: &mut BatchState<N>) {
        let lanes = N * BATCH_LANES;
        state.bits.clear();
        state.bits.extend(
            self.bit_init
                .iter()
                .map(|&b| [u64::from(b).wrapping_neg(); N]),
        );
        // Every word of the plane is refilled below, so growing it with
        // zeros costs nothing a fresh state's `vec!` would not.
        state.words.resize(self.word_init.len() * lanes, 0);
        for (s, &init) in self.word_init.iter().enumerate() {
            state.words[s * lanes..(s + 1) * lanes].fill(init);
        }
        refill(&mut state.bit_stage, self.bit_latches.len().max(1), [0; N]);
        refill(
            &mut state.word_stage,
            self.word_latches.len() * lanes + 1,
            0,
        );
        state.cycles = 0;
    }

    /// Returns a batch state of any width to power-on values, as
    /// [`ExecPlan::new_batch_state_for`] builds that width, reusing its
    /// buffers: a caller running many batches keeps one state per width
    /// and allocates nothing per batch.
    pub fn reset_batch_state(&self, state: &mut AnyBatchState) {
        match state {
            AnyBatchState::Scalar(lanes) => {
                for lane in lanes {
                    self.reset_state(lane);
                }
            }
            AnyBatchState::W1(s) => self.reset_wide_batch_state(s),
            AnyBatchState::W4(s) => self.reset_wide_batch_state(s),
            AnyBatchState::W8(s) => self.reset_wide_batch_state(s),
        }
    }

    /// Whether the plan carries no sequential state (no latches): batch
    /// lanes and carried-state evaluation are then interchangeable.
    pub fn is_combinational(&self) -> bool {
        self.bit_latches.is_empty() && self.word_latches.is_empty()
    }

    /// Total micro-ops in the flattened stream (compile-time size probe).
    pub fn micro_ops(&self) -> usize {
        self.ops.len()
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
        self.load_inputs(state, inputs)?;
        self.step(state);
        self.read_outputs(state, out);
        Ok(())
    }

    /// Writes one input vector into `state`'s input slots, checking its
    /// shape the way the reference evaluator does.
    fn load_inputs(&self, state: &mut PlanState, inputs: &[Value]) -> Result<(), NetlistError> {
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
        Ok(())
    }

    /// One cycle on the loaded inputs: the ops, then the latch.
    fn step(&self, state: &mut PlanState) {
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
        state.cycles += 1;
    }

    /// Refills `out` with the primary outputs, in declaration order.
    fn read_outputs(&self, state: &PlanState, out: &mut Vec<Value>) {
        out.clear();
        for &slot in &self.outputs {
            out.push(match slot {
                Slot::Bit(s) => Value::Bit(state.bits[s as usize] != 0),
                Slot::Word(s) => Value::Word(state.words[s as usize]),
            });
        }
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

    /// Runs one original clock cycle on whichever engine `state` carries:
    /// the one-cycle form of [`ExecPlan::run_batch_cycles_any`].
    ///
    /// # Errors
    ///
    /// Exactly [`ExecPlan::run_batch_cycles_any`]'s.
    pub fn run_batch_cycle_any(
        &self,
        state: &mut AnyBatchState,
        lanes: &[Vec<Value>],
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), NetlistError> {
        self.run_batch_cycles_any(state, lanes, 1, out)
    }

    /// Runs `cycles` original clock cycles (at least one: `0` runs one, as
    /// the serving layer's reference hash counts) on whichever engine
    /// `state` carries, every cycle on the same inputs, and writes the last
    /// cycle's outputs: lane `l` consumes `lanes[l]` and its outputs land
    /// in `out[l]`. A [`AnyBatchState::Scalar`] state runs each lane on
    /// the single-vector engine; a bit-sliced one runs
    /// [`ExecPlan::run_wide_batch_cycle`]'s sweep.
    ///
    /// Equal to `cycles` calls of [`ExecPlan::run_batch_cycle_any`] —
    /// outputs and whole state alike — at a fraction of the cost: no op or
    /// latch writes an input slot, so the inputs are checked and packed
    /// once, and only the last cycle's outputs are unpacked.
    ///
    /// # Errors
    ///
    /// Returns input-shape errors for the first offending lane (batch
    /// size, then each lane's input count, then input types input by
    /// input), with [`NetlistError::InputCountMismatch`] against `state`'s
    /// [`lane_capacity`](AnyBatchState::lane_capacity) for an empty or
    /// over-wide batch. Every lane is checked before any runs, so an error
    /// leaves `state` untouched.
    pub fn run_batch_cycles_any(
        &self,
        state: &mut AnyBatchState,
        lanes: &[Vec<Value>],
        cycles: u64,
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), NetlistError> {
        match state {
            AnyBatchState::Scalar(s) => self.run_scalar_lanes(s, lanes, cycles, out),
            AnyBatchState::W1(s) => self.run_wide_batch_cycles(s, lanes, cycles, out),
            AnyBatchState::W4(s) => self.run_wide_batch_cycles(s, lanes, cycles, out),
            AnyBatchState::W8(s) => self.run_wide_batch_cycles(s, lanes, cycles, out),
        }
    }

    /// Checks a batch for a state of `capacity` lanes in the order both
    /// engines report errors: batch size, then each lane's input count,
    /// then input types input by input.
    fn check_lanes(&self, capacity: usize, lanes: &[Vec<Value>]) -> Result<(), NetlistError> {
        if lanes.is_empty() || lanes.len() > capacity {
            return Err(NetlistError::InputCountMismatch {
                expected: capacity,
                found: lanes.len(),
            });
        }
        // One pass over the lanes: a count error anywhere outranks every
        // type error, and among type errors the lowest input index wins.
        let mut first_bad_type = self.inputs.len();
        for lane in lanes {
            if lane.len() != self.inputs.len() {
                return Err(NetlistError::InputCountMismatch {
                    expected: self.inputs.len(),
                    found: lane.len(),
                });
            }
            if let Some(index) = lane[..first_bad_type]
                .iter()
                .zip(&self.inputs)
                .position(|(v, slot)| v.signal_type() != slot.signal_type())
            {
                first_bad_type = index;
            }
        }
        if first_bad_type < self.inputs.len() {
            return Err(NetlistError::InputTypeMismatch {
                index: first_bad_type,
            });
        }
        Ok(())
    }

    /// Runs lane `l` for `cycles` cycles on `states[l]` with the
    /// single-vector engine, after checking every lane.
    fn run_scalar_lanes(
        &self,
        states: &mut [PlanState],
        lanes: &[Vec<Value>],
        cycles: u64,
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), NetlistError> {
        self.check_lanes(states.len(), lanes)?;
        out.resize_with(lanes.len(), Vec::new);
        for ((state, lane), lane_out) in states.iter_mut().zip(lanes).zip(out.iter_mut()) {
            self.load_inputs(state, lane)?;
            for _ in 0..cycles.max(1) {
                self.step(state);
            }
            self.read_outputs(state, lane_out);
        }
        Ok(())
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
    /// are supplied; an error leaves `state` untouched.
    pub fn run_wide_batch_cycle<const N: usize>(
        &self,
        state: &mut BatchState<N>,
        lanes: &[Vec<Value>],
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), NetlistError> {
        self.run_wide_batch_cycles(state, lanes, 1, out)
    }

    /// The one bit-sliced run body: checks and packs the inputs once,
    /// sweeps `cycles` cycles (at least one) of ops and latch, and unpacks
    /// the last cycle's outputs.
    fn run_wide_batch_cycles<const N: usize>(
        &self,
        state: &mut BatchState<N>,
        lanes: &[Vec<Value>],
        cycles: u64,
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), NetlistError> {
        let width = N * BATCH_LANES;
        self.check_lanes(width, lanes)?;
        for (i, &slot) in self.inputs.iter().enumerate() {
            match slot {
                Slot::Bit(s) => {
                    let mut w = [0u64; N];
                    for (l, lane) in lanes.iter().enumerate() {
                        w[l >> 6] |= u64::from(lane[i] == Value::Bit(true)) << (l & 63);
                    }
                    state.bits[s as usize] = w;
                }
                Slot::Word(s) => {
                    let base = s as usize * width;
                    for (w, lane) in state.words[base..].iter_mut().zip(lanes) {
                        // Checked above: every lane's input `i` is a word.
                        *w = lane[i].as_word().unwrap_or_default();
                    }
                }
            }
        }

        for _ in 0..cycles.max(1) {
            self.exec_batch_dispatch(&self.ops, &mut state.bits, &mut state.words);

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
            state.cycles += 1;
        }

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

    /// The single-vector engine: one flat record per op. An inline LUT is
    /// four byte loads, a shift-or and one shift of its own table; only
    /// `PooledLut` and `Pack` reach into the pools.
    fn exec(&self, ops: &[Op], bits: &mut [u8], words: &mut [u32]) {
        for op in ops {
            let [a, b, c, d] = op.args;
            let dst = op.dst as usize;
            match op.code {
                OpCode::Lut | OpCode::Parity => {
                    let row = u32::from(bits[a as usize])
                        | u32::from(bits[b as usize]) << 1
                        | u32::from(bits[c as usize]) << 2
                        | u32::from(bits[d as usize]) << 3;
                    bits[dst] = (op.table >> row) as u8 & 1;
                }
                OpCode::PooledLut => {
                    let mut row = 0usize;
                    for (k, &slot) in self.pooled(op).iter().enumerate() {
                        row |= (bits[slot as usize] as usize) << k;
                    }
                    let t = b as usize;
                    bits[dst] = ((self.tables[t + (row >> 6)] >> (row & 63)) & 1) as u8;
                }
                OpCode::Mac => {
                    words[dst] = words[a as usize]
                        .wrapping_mul(words[b as usize])
                        .wrapping_add(words[c as usize]);
                }
                OpCode::Pack => {
                    let mut w = 0u32;
                    for (k, &slot) in self.pooled(op).iter().enumerate() {
                        w |= (bits[slot as usize] as u32) << k;
                    }
                    words[dst] = w;
                }
                OpCode::Unpack => bits[dst] = ((words[a as usize] >> b) & 1) as u8,
                OpCode::CopyBit => bits[dst] = bits[a as usize],
                OpCode::CopyWord => words[dst] = words[a as usize],
            }
        }
    }

    /// The pooled operand slots of a `PooledLut` or `Pack` record.
    fn pooled(&self, op: &Op) -> &[u32] {
        &self.operands[op.args[0] as usize..][..op.n as usize]
    }

    /// The operand slots of any LUT record, inline or pooled.
    fn lut_operands<'a>(&'a self, op: &'a Op) -> &'a [u32] {
        if op.code == OpCode::PooledLut {
            self.pooled(op)
        } else {
            &op.args[..op.n as usize]
        }
    }

    /// Runs [`ExecPlan::exec_batch`] compiled for the widest instruction
    /// set this host supports ([`BatchIsa::detect`]). Every variant is
    /// the same source, so all of them leave identical planes.
    #[allow(unsafe_code)]
    #[inline]
    fn exec_batch_dispatch<const N: usize>(
        &self,
        ops: &[Op],
        bits: &mut [[u64; N]],
        words: &mut [u32],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            let isa = BatchIsa::detect();
            if isa != BatchIsa::Portable {
                // SAFETY: `BatchIsa::detect` returns `Avx512` only when
                // `is_x86_feature_detected!` reported every feature
                // `exec_batch_avx512` enables, and `Avx2` only when it
                // reported AVX2, so the variant called here executes no
                // instruction the host lacks.
                unsafe {
                    if isa == BatchIsa::Avx512 {
                        self.exec_batch_avx512(ops, bits, words);
                    } else {
                        self.exec_batch_avx2(ops, bits, words);
                    }
                }
                return;
            }
        }
        self.exec_batch(ops, bits, words);
    }

    /// [`ExecPlan::exec_batch`] compiled for AVX-512: a 512-lane chunk is
    /// one `zmm` register.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vl,avx2,bmi1,bmi2,popcnt")]
    fn exec_batch_avx512<const N: usize>(
        &self,
        ops: &[Op],
        bits: &mut [[u64; N]],
        words: &mut [u32],
    ) {
        self.exec_batch(ops, bits, words);
    }

    /// [`ExecPlan::exec_batch`] compiled for AVX2 (256-bit registers).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn exec_batch_avx2<const N: usize>(
        &self,
        ops: &[Op],
        bits: &mut [[u64; N]],
        words: &mut [u32],
    ) {
        self.exec_batch(ops, bits, words);
    }

    /// The `N * 64`-lane batch inner loop over the same records as
    /// [`ExecPlan::exec`]: bit-sliced for bit logic, lane loops for word
    /// arithmetic. All chunk loops run over `[u64; N]` arrays with no
    /// cross-iteration dependency, so the autovectorizer widens them to
    /// whatever SIMD the target offers.
    ///
    /// Consecutive LUT ops computing one function (common after
    /// tech-mapping: adder/xor columns all compile to the same LUT
    /// function, and [`compile`] groups them) execute as a *fused run*
    /// over the function's [`LutForm`], fixed at compile time: the opcode
    /// says it for inline LUTs (`Parity`, or `Lut` swept as a mux tree
    /// over its inline table), the pool's form column for pooled ones.
    /// Parity tables (XOR/XNOR chains, everywhere in adders and AES)
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
    ///
    /// `Pack` ops and runs of `Unpack` ops over one source slot move
    /// between the planes through [`transpose64`], which transposes the
    /// slot's `N` 64×64 bit blocks in lock-step: each butterfly step is
    /// one `[u64; N]` operation. Below [`TRANSPOSE_MIN_BITS`] an `Unpack`
    /// run at any width, and a `Pack` at `N = 1`, assemble lanes one by
    /// one instead, where that measured faster.
    ///
    /// This is the portable body: it, [`ExecPlan::mux_run`] and
    /// [`transpose64`] are always inlined, so each `#[target_feature]`
    /// wrapper below compiles its own copy of the whole sweep.
    /// [`ExecPlan::exec_batch_dispatch`] picks one per call.
    #[inline(always)]
    fn exec_batch<const N: usize>(&self, ops: &[Op], bits: &mut [[u64; N]], words: &mut [u32]) {
        let width = N * BATCH_LANES;
        let len = ops.len();
        let mut i = 0usize;
        while i < len {
            let op = ops[i];
            let dst = op.dst as usize;
            match op.code {
                OpCode::Lut | OpCode::Parity | OpCode::PooledLut => {
                    // Fused run: every following op computing the same
                    // function (hence of the same arity) shares its form.
                    let same = |o: &Op| {
                        o.code == op.code
                            && if op.code == OpCode::PooledLut {
                                o.args[1] == op.args[1]
                            } else {
                                o.n == op.n && o.table == op.table
                            }
                    };
                    let mut end = i + 1;
                    while end < len && same(&ops[end]) {
                        end += 1;
                    }
                    let run = &ops[i..end];
                    let form = match op.code {
                        OpCode::Lut => LutForm::Mux {
                            codes: u64::from(op.table),
                        },
                        OpCode::Parity => LutForm::Parity {
                            flip: u64::from(op.table & 1).wrapping_neg(),
                        },
                        _ => self.lut_forms[op.args[1] as usize],
                    };
                    match form {
                        LutForm::Parity { flip } => {
                            for o in run {
                                let mut acc = [flip; N];
                                for &slot in self.lut_operands(o) {
                                    let v = &bits[slot as usize];
                                    for x in 0..N {
                                        acc[x] ^= v[x];
                                    }
                                }
                                bits[o.dst as usize] = acc;
                            }
                        }
                        LutForm::Mux { codes } => match op.n {
                            1 => self.mux_run::<N, 1>(run, codes, bits),
                            2 => self.mux_run::<N, 2>(run, codes, bits),
                            3 => self.mux_run::<N, 3>(run, codes, bits),
                            4 => self.mux_run::<N, 4>(run, codes, bits),
                            5 => self.mux_run::<N, 5>(run, codes, bits),
                            6 => self.mux_run::<N, 6>(run, codes, bits),
                            _ => unreachable!("mux-tree tables have 1-6 inputs"),
                        },
                        LutForm::Wide => {
                            let t = op.args[1] as usize;
                            for o in run {
                                let ins = self.pooled(o);
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
                                bits[o.dst as usize] = acc;
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
                    while end < len && matches!(ops[end].code, OpCode::Mac | OpCode::CopyWord) {
                        end += 1;
                    }
                    for base in (0..width).step_by(BATCH_LANES) {
                        for o in &ops[i..end] {
                            let db = o.dst as usize * width + base;
                            let [a, b, c, _] = o.args.map(|s| s as usize * width + base);
                            match o.code {
                                OpCode::Mac => {
                                    for j in 0..BATCH_LANES {
                                        words[db + j] = words[a + j]
                                            .wrapping_mul(words[b + j])
                                            .wrapping_add(words[c + j]);
                                    }
                                }
                                OpCode::CopyWord => words.copy_within(a..a + BATCH_LANES, db),
                                _ => unreachable!("word run only holds Mac/CopyWord"),
                            }
                        }
                    }
                    i = end;
                    continue;
                }
                OpCode::Pack => {
                    // Transpose the operands' chunks as one 64×64 bit
                    // block per 64-lane chunk, all `N` blocks in
                    // lock-step; only a narrow pack at `N = 1` assembles
                    // each lane's value in a register instead, where the
                    // transpose does not pay for itself. Either way each
                    // destination lane is stored exactly once.
                    let ins = self.pooled(&op);
                    let n = ins.len();
                    let out = &mut words[dst * width..(dst + 1) * width];
                    if N > 1 || n >= TRANSPOSE_MIN_BITS {
                        let mut m = [[0u64; N]; 64];
                        for (row, &slot) in m.iter_mut().zip(ins) {
                            *row = bits[slot as usize];
                        }
                        transpose64(&mut m);
                        for (j, row) in m.iter().enumerate() {
                            for x in 0..N {
                                out[x * BATCH_LANES + j] = row[x] as u32;
                            }
                        }
                    } else {
                        // `N = 1`: one 64-lane chunk.
                        let mut ms = [0u64; TRANSPOSE_MIN_BITS];
                        for (m, &slot) in ms.iter_mut().zip(ins) {
                            *m = bits[slot as usize][0];
                        }
                        for (j, o) in out.iter_mut().enumerate() {
                            let mut packed = 0u32;
                            for (k, m) in ms[..n].iter().enumerate() {
                                packed |= (((m >> j) & 1) as u32) << k;
                            }
                            *o = packed;
                        }
                    }
                }
                OpCode::Unpack => {
                    // Fused run: tech-mapped word logic unpacks *every*
                    // bit of a word in sequence, so consecutive Unpacks
                    // of one source slot transpose the source lanes once
                    // (every 64-lane chunk in lock-step) and hand every op
                    // in the run its row — the naive form re-reads all
                    // lanes once per bit.
                    let src = op.args[0];
                    let mut end = i + 1;
                    while end < len && ops[end].code == OpCode::Unpack && ops[end].args[0] == src {
                        end += 1;
                    }
                    let run = &ops[i..end];
                    let lanes = &words[src as usize * width..(src as usize + 1) * width];
                    if run.len() >= TRANSPOSE_MIN_BITS {
                        let mut m = [[0u64; N]; 64];
                        for (j, row) in m.iter_mut().enumerate() {
                            for x in 0..N {
                                row[x] = u64::from(lanes[x * BATCH_LANES + j]);
                            }
                        }
                        transpose64(&mut m);
                        for o in run {
                            bits[o.dst as usize] = m[o.args[1] as usize];
                        }
                    } else {
                        for o in run {
                            let bit = o.args[1];
                            let mut m = [0u64; N];
                            for (mw, chunk) in m.iter_mut().zip(lanes.chunks_exact(BATCH_LANES)) {
                                for (j, &word) in chunk.iter().enumerate() {
                                    *mw |= u64::from((word >> bit) & 1) << j;
                                }
                            }
                            bits[o.dst as usize] = m;
                        }
                    }
                    i = end;
                    continue;
                }
                OpCode::CopyBit => {
                    bits[dst] = bits[op.args[0] as usize];
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
    #[inline(always)]
    fn mux_run<const N: usize, const K: usize>(
        &self,
        run: &[Op],
        codes: u64,
        bits: &mut [[u64; N]],
    ) {
        let mut level = [[0u64; N]; 16];
        let pooled = run[0].code == OpCode::PooledLut;
        for op in run {
            // `K` is the arity, so both operand reads have a fixed length.
            let slots: [u32; K] = if pooled {
                std::array::from_fn(|k| self.operands[op.args[0] as usize + k])
            } else {
                std::array::from_fn(|k| op.args[k % INLINE_LUT_INPUTS])
            };
            let v: [[u64; N]; K] = slots.map(|slot| bits[slot as usize]);
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
                bits[op.dst as usize] = leaf(0);
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
            bits[op.dst as usize] = level[0];
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
    /// The reserved always-zero bit slot that pads inline LUT operands.
    zero: u32,
    /// Table-pool offset by *function* (table content and arity): distinct
    /// pooled LUTs computing the same function share one pool run and one
    /// [`LutForm`], which both shrinks the pool and lets the batch engine
    /// sweep them as one fused run.
    table_index: HashMap<TruthTable, u32>,
    ops: Vec<Op>,
    operands: Vec<u32>,
    tables: Vec<u64>,
    lut_forms: Vec<LutForm>,
    bit_latches: Vec<(u32, u32)>,
    word_latches: Vec<(u32, u32)>,
    bit_init: Vec<u8>,
    word_init: Vec<u32>,
}

impl<'a> PlanBuilder<'a> {
    /// Validates the netlist, assigns every node a dense slot in its
    /// plane (plus one reserved always-zero bit slot), and seeds the
    /// initial planes with constants and power-on register values.
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
        // No op, input or latch ever writes the zero slot.
        let zero = bit_slots;
        let mut bit_init = vec![0u8; zero as usize + 1];
        let mut word_init = vec![0u32; word_slots as usize];
        for (i, node) in netlist.nodes().iter().enumerate() {
            match (&node.kind, slots[i]) {
                (NodeKind::ConstBit(v), Slot::Bit(s)) => bit_init[s as usize] = u8::from(*v),
                (NodeKind::Ff { init }, Slot::Bit(s)) => bit_init[s as usize] = u8::from(*init),
                (NodeKind::ConstWord(w), Slot::Word(s)) => word_init[s as usize] = *w,
                (NodeKind::WordReg { init }, Slot::Word(s)) => word_init[s as usize] = *init,
                _ => {}
            }
        }
        Ok(PlanBuilder {
            netlist,
            slots,
            zero,
            table_index: HashMap::new(),
            ops: Vec::new(),
            operands: Vec::new(),
            tables: Vec::new(),
            lut_forms: Vec::new(),
            bit_latches: Vec::new(),
            word_latches: Vec::new(),
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

    /// Appends `id`'s operand slots to the operand pool, returning their
    /// offset.
    fn pool_operands(&mut self, id: NodeId) -> u32 {
        let off = self.operands.len() as u32;
        for &inp in &self.netlist.nodes()[id.index()].inputs {
            let s = self.raw(inp);
            self.operands.push(s);
        }
        off
    }

    /// The table-pool offset of `table`, pooling it (and classifying its
    /// [`LutForm`]) on first sight.
    fn pool_table(&mut self, table: &TruthTable) -> u32 {
        if let Some(&off) = self.table_index.get(table) {
            return off;
        }
        let off = self.tables.len() as u32;
        self.tables.extend_from_slice(table.words());
        self.lut_forms.push(LutForm::of(table));
        self.lut_forms.resize(self.tables.len(), LutForm::Wide);
        self.table_index.insert(table.clone(), off);
        off
    }

    /// Emits the micro-op computing node `id`. Source nodes — inputs,
    /// constants, sequential elements — need no op (their slots are written
    /// by the input prologue, the initial planes, or the latch phase) and
    /// emit nothing.
    pub fn emit(&mut self, id: NodeId) {
        let node = &self.netlist.nodes()[id.index()];
        let n = node.inputs.len();
        let mut op = Op {
            code: OpCode::CopyBit,
            n: 0,
            table: 0,
            dst: self.raw(id),
            args: [0; 4],
        };
        match &node.kind {
            NodeKind::BitInput { .. }
            | NodeKind::WordInput { .. }
            | NodeKind::ConstBit(_)
            | NodeKind::ConstWord(_)
            | NodeKind::Ff { .. }
            | NodeKind::WordReg { .. } => return,
            NodeKind::Lut(table) if n <= INLINE_LUT_INPUTS => {
                op.code = match LutForm::of(table) {
                    LutForm::Parity { .. } => OpCode::Parity,
                    _ => OpCode::Lut,
                };
                op.n = n as u8;
                op.table = table.words()[0] as u16;
                op.args = [self.zero; 4];
                for (arg, &inp) in op.args.iter_mut().zip(&node.inputs) {
                    *arg = self.raw(inp);
                }
            }
            NodeKind::Lut(table) => {
                op.code = OpCode::PooledLut;
                op.n = n as u8;
                op.args = [self.pool_operands(id), self.pool_table(table), 0, 0];
            }
            NodeKind::Mac => {
                op.code = OpCode::Mac;
                for (arg, &inp) in op.args.iter_mut().zip(&node.inputs) {
                    *arg = self.raw(inp);
                }
            }
            NodeKind::Pack => {
                op.code = OpCode::Pack;
                op.n = n as u8;
                op.args[0] = self.pool_operands(id);
            }
            NodeKind::Unpack { bit } => {
                op.code = OpCode::Unpack;
                op.args[..2].copy_from_slice(&[self.raw(node.inputs[0]), *bit]);
            }
            NodeKind::BitOutput { .. } => {
                op.code = OpCode::CopyBit;
                op.args[0] = self.raw(node.inputs[0]);
            }
            NodeKind::WordOutput { .. } => {
                op.code = OpCode::CopyWord;
                op.args[0] = self.raw(node.inputs[0]);
            }
        }
        self.ops.push(op);
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
            ops: self.ops,
            operands: self.operands,
            tables: self.tables,
            lut_forms: self.lut_forms,
            bit_latches: self.bit_latches,
            word_latches: self.word_latches,
            inputs,
            outputs,
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
            b.emit(id);
        }
    }
    b.latch_all();
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CircuitBuilder, Word};
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
        // At or below the cut-over, one single-vector state per lane.
        assert!(matches!(
            plan.new_batch_state_for(1),
            AnyBatchState::Scalar(ref lanes) if lanes.len() == 1
        ));
        assert_eq!(plan.new_batch_state_for(0).lane_capacity(), 1);
        assert_eq!(plan.new_batch_state_for(1).lane_capacity(), 1);
        assert_eq!(
            plan.new_batch_state_for(SCALAR_BATCH_LANES).lane_capacity(),
            SCALAR_BATCH_LANES
        );
        assert_eq!(
            plan.new_batch_state_for(SCALAR_BATCH_LANES + 1)
                .lane_capacity(),
            64
        );
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
    fn same_function_luts_share_one_function_key() {
        // A ripple-carry adder tech-maps every column to the same pair of
        // LUT functions: 4-LUTs carry their tables inline (nothing is
        // pooled), and the fused-run key — opcode, arity, table — takes
        // only a handful of values.
        let mut b = CircuitBuilder::new("add");
        let a = b.word_input("a", 16);
        let c = b.word_input("b", 16);
        let s = b.add(&a, &c);
        b.word_output("s", &s);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let plan = compile(&n).unwrap();
        assert!(plan.tables.is_empty());
        assert!(plan.ops.iter().all(|op| op.code != OpCode::PooledLut));
        let keys: std::collections::HashSet<(OpCode, u8, u16)> = plan
            .ops
            .iter()
            .filter(|op| matches!(op.code, OpCode::Lut | OpCode::Parity))
            .map(|op| (op.code, op.n, op.table))
            .collect();
        assert!(
            !keys.is_empty() && keys.len() <= 8,
            "16-bit adder needs only a handful of LUT functions, got {}",
            keys.len()
        );

        // Pooled (5+ input) LUTs computing one function share one pool run.
        let mut b = CircuitBuilder::new("pooled");
        let ins: Vec<_> = (0..6).map(|k| b.bit_input(&format!("x{k}"))).collect();
        let t5 = TruthTable::from_fn(5, |r| r % 3 == 0).unwrap();
        for (i, window) in ins.windows(5).enumerate() {
            let f = b.lut(t5.clone(), window);
            b.bit_output(&format!("f{i}"), f);
        }
        let plan = compile(&b.finish().unwrap()).unwrap();
        assert_eq!(plan.tables.len(), 1, "one 5-input function, one pool word");
        assert_eq!(plan.operands.len(), 10);
    }

    #[test]
    fn op_records_stay_flat() {
        assert_eq!(std::mem::size_of::<Op>(), 24);
    }

    /// Checks `plan` against `n`'s reference evaluator on every engine:
    /// the scalar engine over `stimuli` (state carried across it), then
    /// every batch state that holds `stimuli.len()` lanes — per lane,
    /// 64-lane (forced), and (when they fit) 256/512-lane — for `passes`
    /// cycles with lane `l` fed `stimuli[l]` each pass.
    fn every_engine_matches_reference(
        plan: &ExecPlan,
        n: &Netlist,
        stimuli: &[Vec<Value>],
        passes: usize,
    ) {
        let mut state = plan.new_state();
        let mut ev = Evaluator::new(n);
        let mut out = Vec::new();
        for (cycle, v) in stimuli.iter().enumerate() {
            plan.run_cycle_into(&mut state, v, &mut out).unwrap();
            assert_eq!(out, ev.run_cycle(v).unwrap(), "scalar cycle {cycle}");
        }
        let mut states = vec![
            plan.new_batch_state_for(stimuli.len()),
            AnyBatchState::W1(plan.new_wide_batch_state()),
            AnyBatchState::W4(plan.new_wide_batch_state()),
            AnyBatchState::W8(plan.new_wide_batch_state()),
        ];
        states.retain(|s| s.lane_capacity() >= stimuli.len());
        let mut out = Vec::new();
        for mut state in states {
            let capacity = state.lane_capacity();
            let mut refs: Vec<Evaluator> = stimuli.iter().map(|_| Evaluator::new(n)).collect();
            for pass in 0..passes {
                plan.run_batch_cycle_any(&mut state, stimuli, &mut out)
                    .unwrap();
                assert_eq!(out.len(), stimuli.len());
                for (l, reference) in refs.iter_mut().enumerate() {
                    let expect = reference.run_cycle(&stimuli[l]).unwrap();
                    assert_eq!(out[l], expect, "capacity {capacity} lane {l} pass {pass}");
                }
            }
            assert_eq!(state.cycles(), passes as u64);
        }
    }

    /// A sequential circuit whose compiled plan holds every op code: inline
    /// mux-tree and parity LUTs (a 0-input constant LUT among them), a
    /// 5-input and an 8-input pooled LUT, MAC, pack, unpack and both
    /// copies.
    fn every_op_circuit() -> Netlist {
        let mut b = CircuitBuilder::new("every_op");
        let a = b.word_input("a", 8);
        let c = b.word_input("c", 8);
        let s = b.bit_input("s");
        let (acc, h) = b.word_reg(7, 8);
        let m = b.mac(&a, &c, &acc);
        let m8 = b.resize(&m, 8);
        let x = b.xor_words(&m8, &a);
        b.connect_word_reg(h, &x);
        let one = b.lut(TruthTable::constant(0, true).unwrap(), &[]);
        let and = b.and(s, one);
        let t5 = TruthTable::from_fn(5, |r| (r * 7) % 5 < 2).unwrap();
        let f5 = b.lut(t5, &[a.bit(0), a.bit(1), c.bit(2), s, acc.bit(3)]);
        let rom: Vec<u32> = (0..256u32).map(|i| (i * i + 3) & 1).collect();
        let wide = b.rom(&rom, acc.bits(), 1);
        let (q, qh) = b.ff(true);
        let d = b.mux(and, q, f5);
        b.connect_ff(qh, d);
        b.word_output("acc", &acc);
        b.word_output("x", &x);
        b.word_output("wide", &wide);
        b.bit_output("q", q);
        b.bit_output("f5", f5);
        b.finish().unwrap()
    }

    #[test]
    fn reset_states_equal_fresh_ones_at_every_width() {
        // Scalar (one and two lanes), W1, W4 and W8: three cycles move
        // every register and latch stage off its power-on value, and a
        // reset brings the whole state back to a fresh one's.
        let plan = compile(&every_op_circuit()).unwrap();
        for lanes in [1, SCALAR_BATCH_LANES, 64, 256, 512] {
            let fresh = plan.new_batch_state_for(lanes);
            let inputs: Vec<Vec<Value>> = (0..lanes as u32)
                .map(|l| {
                    vec![
                        Value::Word(l * 37 % 256),
                        Value::Word(l * 11 % 256 + 1),
                        Value::Bit(l % 3 == 0),
                    ]
                })
                .collect();
            let mut state = fresh.clone();
            let mut out = Vec::new();
            for _ in 0..3 {
                plan.run_batch_cycle_any(&mut state, &inputs, &mut out)
                    .unwrap();
            }
            let first = out.clone();
            assert_ne!(state, fresh, "{lanes} lanes: the cycles left no trace");
            plan.reset_batch_state(&mut state);
            assert_eq!(state, fresh, "{lanes} lanes");
            for _ in 0..3 {
                plan.run_batch_cycle_any(&mut state, &inputs, &mut out)
                    .unwrap();
            }
            assert_eq!(out, first, "{lanes} lanes: a reset state reruns alike");
        }
    }

    #[test]
    fn every_op_code_matches_reference_on_every_engine() {
        let n = every_op_circuit();
        let plan = compile(&n).unwrap();
        for code in [
            OpCode::Lut,
            OpCode::Parity,
            OpCode::PooledLut,
            OpCode::Mac,
            OpCode::Pack,
            OpCode::Unpack,
            OpCode::CopyBit,
            OpCode::CopyWord,
        ] {
            assert!(
                plan.ops.iter().any(|op| op.code == code),
                "plan emits no {code:?}"
            );
        }
        let inline = plan
            .ops
            .iter()
            .filter(|op| matches!(op.code, OpCode::Lut | OpCode::Parity));
        for op in inline {
            let pad = &op.args[op.n as usize..];
            assert!(pad.iter().all(|&s| s == plan.bit_init.len() as u32 - 1));
        }
        let stimulus = |k: u32| {
            vec![
                Value::Word(k.wrapping_mul(37) & 0xFF),
                Value::Word(k.wrapping_mul(91).wrapping_add(5) & 0xFF),
                Value::Bit(!k.is_multiple_of(3)),
            ]
        };
        let stimuli: Vec<Vec<Value>> = (0..5).map(stimulus).collect();
        every_engine_matches_reference(&plan, &n, &stimuli, 1);
        for lanes in 1..=SCALAR_BATCH_LANES + 1 {
            every_engine_matches_reference(&plan, &n, &stimuli[..lanes], 3);
        }
    }

    #[test]
    fn scalar_lanes_check_every_lane_before_running_any() {
        // Input 0 is a word, input 1 a bit; the register makes a lane that
        // ran visibly different from one that did not.
        let mut b = CircuitBuilder::new("acc");
        let x = b.word_input("x", 8);
        let s = b.bit_input("s");
        let (acc, h) = b.word_reg(1, 8);
        let sum = b.add(&acc, &x);
        let next = b.mux_word(s, &acc, &sum);
        b.connect_word_reg(h, &next);
        b.word_output("acc", &acc);
        let n = b.finish().unwrap();
        let plan = compile(&n).unwrap();
        let good = vec![Value::Word(3), Value::Bit(true)];
        let bad_batches: Vec<Vec<Vec<Value>>> = vec![
            vec![good.clone(), vec![Value::Word(3)]],
            vec![vec![Value::Word(3)], good.clone()],
            vec![good.clone(), vec![Value::Word(3), Value::Word(1)]],
            vec![
                vec![Value::Word(3), Value::Word(1)],
                vec![Value::Bit(false), Value::Bit(true)],
            ],
            vec![vec![Value::Bit(false), Value::Bit(true)], good.clone()],
        ];
        let scalar_cycles = |state: &AnyBatchState| -> Vec<u64> {
            match state {
                AnyBatchState::Scalar(lanes) => lanes.iter().map(PlanState::cycles).collect(),
                _ => panic!("two lanes run per lane"),
            }
        };
        let mut state = plan.new_batch_state_for(2);
        let mut wide = AnyBatchState::W1(plan.new_wide_batch_state());
        let mut out = Vec::new();
        for batch in &bad_batches {
            let per_lane = plan.run_batch_cycle_any(&mut state, batch, &mut out);
            let sliced = plan.run_batch_cycle_any(&mut wide, batch, &mut out);
            assert!(per_lane.is_err(), "{batch:?} must be refused");
            assert_eq!(per_lane, sliced, "{batch:?}");
            assert_eq!(scalar_cycles(&state), vec![0, 0], "{batch:?} ran a lane");
        }
        // Empty and over-capacity batches, against the state's capacity.
        for batch in [Vec::new(), vec![good.clone(); 3]] {
            assert_eq!(
                plan.run_batch_cycle_any(&mut state, &batch, &mut out),
                Err(NetlistError::InputCountMismatch {
                    expected: 2,
                    found: batch.len()
                })
            );
            assert_eq!(scalar_cycles(&state), vec![0, 0]);
        }
        // Nothing ran: both lanes still produce power-on outputs, and a
        // one-lane batch advances only lane 0.
        plan.run_batch_cycle_any(&mut state, std::slice::from_ref(&good), &mut out)
            .unwrap();
        assert_eq!(out, vec![vec![Value::Word(1)]]);
        assert_eq!(scalar_cycles(&state), vec![1, 0]);
        assert_eq!(state.cycles(), 1);
        plan.run_batch_cycle_any(&mut state, &[good.clone(), good.clone()], &mut out)
            .unwrap();
        assert_eq!(out, vec![vec![Value::Word(4)], vec![Value::Word(1)]]);
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

    /// A circuit whose unmapped plan holds every batch-sweep form: inline
    /// mux-tree LUTs of 1-4 inputs, pooled ones of 5 and 6, a pooled
    /// parity table, a wide (8-input) table, inline parity chains, packs
    /// and unpack runs both narrower and wider than `TRANSPOSE_MIN_BITS`,
    /// and a run of `Mac`/`CopyWord` ops.
    fn every_form_circuit() -> Netlist {
        let mut b = CircuitBuilder::new("every_form");
        let a = b.word_input("a", 16);
        let c = b.word_input("c", 4);
        let s = b.bit_input("s");
        let (acc, h) = b.word_reg(3, 16);
        let ins = [a.bit(0), a.bit(5), c.bit(1), s, acc.bit(2), a.bit(9)];
        let mut luts = Vec::new();
        for n in 1..=6usize {
            let t = TruthTable::from_fn(n, |r| (r * 13 + n) % 7 < 3).unwrap();
            luts.push(b.lut(t, &ins[..n]));
        }
        let parity5 = TruthTable::from_fn(5, |r| r.count_ones() % 2 == 1).unwrap();
        luts.push(b.lut(parity5, &ins[..5]));
        let rom: Vec<u32> = (0..256u32).map(|i| ((i * 7 + 1) % 3) & 1).collect();
        let wide = b.rom(&rom, a.slice(3, 8).bits(), 1);
        let x = b.xor_words(&a, &acc);
        let narrow = b.xor_words(&c, &acc.slice(0, 4));
        let m = b.mac(&a, &x, &acc);
        let m2 = b.mac(&m, &a, &x);
        let m3 = b.mac(&m2, &m, &a);
        b.connect_word_reg(h, &m3);
        let lut_word = luts[1..].iter().fold(Word::from_wire(luts[0]), |w, &l| {
            b.concat(&w, &Word::from_wire(l))
        });
        b.word_output("luts", &lut_word);
        b.word_output("wide", &wide);
        b.word_output("narrow", &narrow);
        b.word_output("m2", &m2);
        b.word_output("m3", &m3);
        b.finish().unwrap()
    }

    /// An AES round datapath as the AES kernel builds it: four 32-bit
    /// column registers loaded from the plaintext, S-box ROMs over every
    /// state byte with ShiftRows, MixColumns (`xtime` and XOR chains), a
    /// round-key XOR and a 4-bit round counter.
    fn aes_round_circuit() -> Netlist {
        let mut b = CircuitBuilder::new("aes_round");
        let sbox: Vec<u32> = (0..256u32)
            .map(|i| (i.wrapping_mul(167).wrapping_add(99)) & 0xFF)
            .collect();
        let pt: Vec<Word> = (0..4)
            .map(|c| b.word_input(&format!("pt{c}"), 32))
            .collect();
        let mut state = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (q, h) = b.word_reg(0, 32);
            state.push(q);
            handles.push(h);
        }
        let (rc, rc_h) = b.word_reg(0, 4);
        let zero4 = b.const_word(0, 4);
        let is_load = b.eq_words(&rc, &zero4);
        let rc1 = b.inc(&rc);
        b.connect_word_reg(rc_h, &rc1);
        for (c, h) in handles.into_iter().enumerate() {
            let col: Vec<Word> = (0..4)
                .map(|r| {
                    let byte = state[(c + r) % 4].slice(8 * r, 8);
                    b.rom(&sbox, byte.bits(), 8)
                })
                .collect();
            let xt: Vec<Word> = col
                .iter()
                .map(|v| {
                    let shifted = b.shl_const(v, 1);
                    let poly = b.const_word(0x1b, 8);
                    let reduced = b.xor_words(&shifted, &poly);
                    b.mux_word(v.bit(7), &shifted, &reduced)
                })
                .collect();
            let mixed: Vec<Word> = (0..4)
                .map(|r| {
                    let t = b.xor_words(&xt[r], &xt[(r + 1) % 4]);
                    let t = b.xor_words(&t, &col[(r + 1) % 4]);
                    let t = b.xor_words(&t, &col[(r + 2) % 4]);
                    b.xor_words(&t, &col[(r + 3) % 4])
                })
                .collect();
            let lo = b.concat(&mixed[0], &mixed[1]);
            let hi = b.concat(&mixed[2], &mixed[3]);
            let round = b.concat(&lo, &hi);
            let key = b.const_word(0x2b7e_1516u32.rotate_left(8 * c as u32), 32);
            let keyed = b.xor_words(&round, &key);
            let next = b.mux_word(is_load, &keyed, &pt[c]);
            b.connect_word_reg(h, &next);
            b.word_output(&format!("ct{c}"), &state[c]);
        }
        b.finish().unwrap()
    }

    /// The GEMM kernel's processing element: a 32-bit MAC whose
    /// accumulator clears when an 8-bit K counter wraps.
    fn gemm_pe_circuit() -> Netlist {
        let mut b = CircuitBuilder::new("gemm_pe");
        let a = b.word_input("a", 32);
        let x = b.word_input("b", 32);
        let (acc, acc_h) = b.word_reg(0, 32);
        let (k, k_h) = b.word_reg(0, 8);
        let zero8 = b.const_word(0, 8);
        let last = b.const_word(15, 8);
        let is_first = b.eq_words(&k, &zero8);
        let is_last = b.eq_words(&k, &last);
        let zero32 = b.const_word(0, 32);
        let acc_in = b.mux_word(is_first, &acc, &zero32);
        let m = b.mac(&a, &x, &acc_in);
        b.connect_word_reg(acc_h, &m);
        let k1 = b.inc(&k);
        let k_next = b.mux_word(is_last, &k1, &zero8);
        b.connect_word_reg(k_h, &k_next);
        b.word_output("acc", &m);
        b.bit_output("done", is_last);
        b.finish().unwrap()
    }

    /// Runs the portable sweep and the dispatched one over both op
    /// streams, from the same random state, `rounds` times, and requires
    /// identical bit and word planes after every stream.
    fn dispatch_matches_portable<const N: usize>(plan: &ExecPlan, label: &str, rounds: usize) {
        let mut rng = freac_rand::Rng64::new(0x6973_615f_6469_7370 ^ N as u64);
        for round in 0..rounds {
            let mut portable = plan.new_wide_batch_state::<N>();
            for chunk in &mut portable.bits {
                *chunk = std::array::from_fn(|_| rng.next_u64());
            }
            for w in &mut portable.words {
                *w = rng.next_u32();
            }
            let mut dispatched = portable.clone();
            plan.exec_batch(&plan.ops, &mut portable.bits, &mut portable.words);
            plan.exec_batch_dispatch(&plan.ops, &mut dispatched.bits, &mut dispatched.words);
            let at = format!("{label} N={N} round {round} ({})", batch_isa());
            assert!(portable.bits == dispatched.bits, "{at}: bit planes differ");
            assert!(
                portable.words == dispatched.words,
                "{at}: word planes differ"
            );
        }
    }

    #[test]
    fn dispatched_sweep_matches_portable_sweep() {
        let n = every_form_circuit();
        let raw = compile(&n).unwrap();
        let has = |pred: &dyn Fn(&Op) -> bool| raw.ops.iter().any(pred);
        for k in 1..=4u8 {
            assert!(
                has(&|o| o.code == OpCode::Lut && o.n == k),
                "no inline {k}-LUT"
            );
        }
        assert!(has(&|o| o.code == OpCode::Parity), "no inline parity");
        for (want, what) in [
            (&|f: LutForm| matches!(f, LutForm::Mux { .. }), "mux"),
            (&|f: LutForm| matches!(f, LutForm::Parity { .. }), "parity"),
            (&|f: LutForm| f == LutForm::Wide, "wide"),
        ] as [(&dyn Fn(LutForm) -> bool, &str); 3]
        {
            assert!(
                has(&|o| o.code == OpCode::PooledLut && want(raw.lut_forms[o.args[1] as usize])),
                "no pooled {what} LUT"
            );
        }
        for k in [5u8, 6] {
            assert!(
                has(&|o| o.code == OpCode::PooledLut && o.n == k),
                "no pooled {k}-LUT"
            );
        }
        // Both sides of the 8-bit line, where a per-lane form would stop
        // and a transpose take over.
        const CUT: usize = 8;
        let packs =
            |narrow: bool| has(&|o| o.code == OpCode::Pack && ((o.n as usize) < CUT) == narrow);
        assert!(
            packs(true) && packs(false),
            "packs on one side of the cut only"
        );
        let mut unpack_runs = Vec::new();
        for (i, o) in raw.ops.iter().enumerate() {
            let starts = i == 0 || {
                let p = &raw.ops[i - 1];
                p.code != OpCode::Unpack || p.args[0] != o.args[0]
            };
            if o.code == OpCode::Unpack {
                if starts {
                    unpack_runs.push(0usize);
                }
                *unpack_runs.last_mut().unwrap() += 1;
            }
        }
        assert!(unpack_runs.iter().any(|&r| r < CUT), "no short Unpack run");
        assert!(unpack_runs.iter().any(|&r| r >= CUT), "no long Unpack run");
        let word_run = raw.ops.windows(2).any(|w| {
            w.iter()
                .all(|o| matches!(o.code, OpCode::Mac | OpCode::CopyWord))
        });
        assert!(word_run, "no Mac/CopyWord run");
        assert!(has(&|o| o.code == OpCode::CopyWord));

        let mapped = compile(&tech_map(&n, TechMapOptions::lut4()).unwrap()).unwrap();
        for (plan, label) in [(&raw, "every_form"), (&mapped, "every_form lut4")] {
            dispatch_matches_portable::<1>(plan, label, 3);
            dispatch_matches_portable::<4>(plan, label, 3);
            dispatch_matches_portable::<8>(plan, label, 3);
        }
        // Miri sees no AVX feature, so there both sides are the portable
        // sweep; the kernel-sized circuits would only slow the CI step.
        if !cfg!(miri) {
            for (circuit, label) in [(aes_round_circuit(), "aes"), (gemm_pe_circuit(), "gemm")] {
                let mapped = tech_map(&circuit, TechMapOptions::lut4()).unwrap();
                dispatch_matches_portable::<8>(&compile(&mapped).unwrap(), label, 2);
            }
        }
    }

    /// `plan`'s inputs for `lanes` lanes: a random value of each input's
    /// type per lane.
    fn random_lanes(plan: &ExecPlan, lanes: usize, rng: &mut freac_rand::Rng64) -> Vec<Vec<Value>> {
        (0..lanes)
            .map(|_| {
                plan.inputs
                    .iter()
                    .map(|slot| match slot {
                        Slot::Bit(_) => Value::Bit(rng.bool()),
                        Slot::Word(_) => Value::Word(rng.next_u32()),
                    })
                    .collect()
            })
            .collect()
    }

    /// `n` compiled in fold style: every node emitted level by level in
    /// node order, dead logic and outputs included, with no reordering.
    fn level_order_plan(n: &Netlist) -> ExecPlan {
        let mut pb = PlanBuilder::new(n).unwrap();
        for level in level_graph(n).unwrap().by_level() {
            for id in level {
                pb.emit(id);
            }
        }
        pb.latch_all();
        pb.finish()
    }

    #[test]
    fn multi_cycle_pass_equals_repeated_cycles() {
        let mut rng = freac_rand::Rng64::new(0x6d75_6c74_695f_6379);
        let mapped = |n: Netlist| compile(&tech_map(&n, TechMapOptions::lut4()).unwrap()).unwrap();
        let (plans, widths, depths): (Vec<(ExecPlan, &str)>, &[usize], &[u64]) = if cfg!(miri) {
            (
                vec![(
                    level_order_plan(&every_op_circuit()),
                    "every_op level order",
                )],
                &[1, 3, 65],
                &[1, 2],
            )
        } else {
            (
                vec![
                    (mapped(aes_round_circuit()), "aes"),
                    (mapped(gemm_pe_circuit()), "gemm"),
                    (
                        level_order_plan(&every_op_circuit()),
                        "every_op level order",
                    ),
                    (
                        level_order_plan(
                            &tech_map(&gemm_pe_circuit(), TechMapOptions::lut4()).unwrap(),
                        ),
                        "gemm level order",
                    ),
                ],
                &[1, 2, 3, 64, 65, 300, 512],
                &[1, 2, 4],
            )
        };
        for (plan, label) in &plans {
            for &lanes in widths {
                let inputs = random_lanes(plan, lanes, &mut rng);
                // Start from a state some earlier cycles moved off power-on.
                let prior = random_lanes(plan, lanes, &mut rng);
                let mut start = plan.new_batch_state_for(lanes);
                let mut out = Vec::new();
                plan.run_batch_cycle_any(&mut start, &prior, &mut out)
                    .unwrap();
                for &k in depths {
                    let at = format!("{label}, {lanes} lanes, {k} cycles");
                    let (mut one, mut many) = (start.clone(), start.clone());
                    let (mut one_out, mut many_out) = (Vec::new(), Vec::new());
                    for _ in 0..k {
                        plan.run_batch_cycle_any(&mut one, &inputs, &mut one_out)
                            .unwrap();
                    }
                    plan.run_batch_cycles_any(&mut many, &inputs, k, &mut many_out)
                        .unwrap();
                    assert_eq!(many_out, one_out, "{at}: outputs");
                    assert!(many == one, "{at}: states differ");
                    // And both equal each lane run alone on the
                    // single-vector engine, so a sweep fault that both
                    // calls share cannot hide.
                    for (l, got) in many_out.iter().enumerate() {
                        let mut alone = plan.new_state();
                        let mut alone_out = Vec::new();
                        plan.run_cycle_into(&mut alone, &prior[l], &mut alone_out)
                            .unwrap();
                        for _ in 0..k {
                            plan.run_cycle_into(&mut alone, &inputs[l], &mut alone_out)
                                .unwrap();
                        }
                        assert_eq!(
                            got, &alone_out,
                            "{at}: lane {l} against the single-vector engine"
                        );
                    }
                }
                // Zero cycles run one, as the reference hash counts.
                let (mut one, mut zero) = (start.clone(), start.clone());
                plan.run_batch_cycle_any(&mut one, &inputs, &mut out)
                    .unwrap();
                let mut zero_out = Vec::new();
                plan.run_batch_cycles_any(&mut zero, &inputs, 0, &mut zero_out)
                    .unwrap();
                assert_eq!(zero_out, out, "{label}, {lanes} lanes, 0 cycles");
                assert!(
                    zero == one,
                    "{label}, {lanes} lanes, 0 cycles: states differ"
                );

                // A bad lane: the one-cycle call's error, and no trace.
                let mut bad = inputs.clone();
                let last = bad.last_mut().unwrap();
                let flipped = match last.last() {
                    Some(Value::Word(_)) => Value::Bit(true),
                    Some(Value::Bit(_)) => Value::Word(1),
                    None => continue,
                };
                *last.last_mut().unwrap() = flipped;
                let mut state = start.clone();
                let want = plan.run_batch_cycle_any(&mut state, &bad, &mut out);
                assert!(want.is_err(), "{label}, {lanes} lanes: bad lane accepted");
                assert!(state == start, "{label}, {lanes} lanes: refused cycle ran");
                assert_eq!(
                    plan.run_batch_cycles_any(&mut state, &bad, 4, &mut out),
                    want,
                    "{label}, {lanes} lanes"
                );
                assert!(state == start, "{label}, {lanes} lanes: refused pass ran");
            }
        }
    }

    /// Transposes `N` random 64×64 blocks in lock-step and checks each
    /// against its own element-wise transpose: a transpose that mixed up
    /// chunks, or skipped any, fails on the blocks differing.
    fn check_lock_step_transpose<const N: usize>(rng: &mut freac_rand::Rng64) {
        let orig: [[u64; N]; 64] = std::array::from_fn(|_| std::array::from_fn(|_| rng.next_u64()));
        let mut m = orig;
        transpose64(&mut m);
        for x in 0..N {
            for (i, row) in m.iter().enumerate() {
                for (j, orow) in orig.iter().enumerate() {
                    assert_eq!(
                        (row[x] >> j) & 1,
                        (orow[x] >> i) & 1,
                        "N={N} chunk {x} element ({i}, {j})"
                    );
                }
            }
        }
        // An involution: transposing twice restores every chunk.
        transpose64(&mut m);
        assert_eq!(m, orig, "N={N}");
    }

    #[test]
    fn lock_step_transpose_transposes_every_chunk() {
        let mut rng = freac_rand::Rng64::new(0x7472_616e_7370_6f73);
        let rounds = if cfg!(miri) { 1 } else { 4 };
        for _ in 0..rounds {
            check_lock_step_transpose::<1>(&mut rng);
            check_lock_step_transpose::<4>(&mut rng);
            check_lock_step_transpose::<8>(&mut rng);
        }
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
