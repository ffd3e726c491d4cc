//! Static program-image generation.
//!
//! A [`ProgramImage`] is a synthetic code layout: functions with realistic
//! size distributions packed into a few library-like address regions, each
//! function a straight-line body with conditional branches (intra-function
//! targets, loop back-edges), unconditional jumps, direct/indirect calls
//! along a layered (acyclic) call graph, indirect tail-call dispatch, and
//! a final return. A small dispatcher function models the server's request
//! loop, invoking handler functions under a Zipf popularity law.
//!
//! Branch *targets* are chosen distance-first: each branch samples a
//! stored-offset length from its kind's [`OffsetLengthDist`] and the
//! builder finds a concrete target at (approximately) that byte distance.
//! This is what calibrates the trace's offset distribution to the paper's
//! Figure 4 / 12 / 13.
//!
//! # Storage
//!
//! The image stores each instruction as one 16-byte record: its pc, one
//! `u32` operand, its size and a kind tag. The paper's own lesson applies
//! to this record — most entries need few bits, so size it for the
//! common case: over 80 % of static instructions are Alu/Load/Store with
//! no operand, and only conditional branches (under 10 % of any suite
//! image) need more than one `u32`, so their operands move to a 12-byte
//! side table. [`Instrs`] reads instructions back by value as
//! [`SInstr`]s. The builder computes pcs from a running cursor instead of
//! keeping a per-instruction pc array next to the finished image.

use super::profile::{sample_geometric, sample_x86_len, BranchKindMix, OffsetProfile, Zipf};
use btbx_core::types::Arch;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Maximum call-graph depth (layers); calls always go to a strictly
/// deeper layer, so recursion is impossible and stack depth is bounded.
pub const MAX_LAYERS: usize = 7;

/// Tuning knobs for the synthetic workload generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthParams {
    /// Instruction-set flavour (drives alignment and instruction sizes).
    pub arch: Arch,
    /// Number of generated functions (excluding the dispatcher). Controls
    /// the instruction and branch working-set size: ~100 for client-like,
    /// thousands for server-like workloads.
    pub num_funcs: usize,
    /// Mean instruction count of small/medium/large functions and their
    /// mix fractions (small, medium; large is the remainder).
    pub func_size_means: [f64; 3],
    /// Fractions of functions that are small and medium.
    pub func_size_mix: [f64; 2],
    /// Number of address regions code is mapped into (1–4; the app image
    /// plus shared libraries). PDede's Region-BTB holds 4 entries.
    pub regions: usize,
    /// Zipf exponent of handler popularity (higher ⇒ hotter head).
    pub zipf_s: f64,
    /// Fraction of instruction slots that are branches (~0.17 for typical
    /// server code).
    pub branch_density: f64,
    /// Branch-kind mix over branch slots.
    pub kind_mix: BranchKindMix,
    /// Fraction of conditional branches that are loop back-edges.
    pub loop_fraction: f64,
    /// Mean loop trip count.
    pub mean_loop_trips: f64,
    /// Fraction of branch slots converted into early returns.
    pub early_return_fraction: f64,
    /// Probability a non-branch slot is a load / store.
    pub load_fraction: f64,
    /// Probability a non-branch slot is a store.
    pub store_fraction: f64,
    /// Code spread: probability of a large inter-function gap, making the
    /// image span many pages (drives Page-BTB pressure in PDede).
    pub big_gap_fraction: f64,
    /// Offset-length profiles per branch kind.
    #[serde(skip, default = "OffsetProfile::server_default")]
    pub offsets: OffsetProfile,
}

impl PartialEq for OffsetProfile {
    fn eq(&self, _other: &Self) -> bool {
        true // profiles are calibration constants; treat as equal
    }
}

impl SynthParams {
    /// Server-like defaults (large footprint, deep software stack).
    pub fn server(num_funcs: usize) -> Self {
        SynthParams {
            arch: Arch::Arm64,
            num_funcs,
            func_size_means: [26.0, 120.0, 700.0],
            func_size_mix: [0.45, 0.38],
            regions: 3,
            zipf_s: 0.55,
            branch_density: 0.17,
            kind_mix: BranchKindMix::server_default(),
            loop_fraction: 0.10,
            mean_loop_trips: 3.5,
            early_return_fraction: 0.08,
            load_fraction: 0.27,
            store_fraction: 0.11,
            big_gap_fraction: 0.05,
            offsets: OffsetProfile::server_default(),
        }
    }

    /// Client-like defaults (small footprint, shallow stacks, hotter
    /// loops).
    pub fn client(num_funcs: usize) -> Self {
        SynthParams {
            zipf_s: 1.05,
            loop_fraction: 0.22,
            mean_loop_trips: 9.0,
            big_gap_fraction: 0.02,
            regions: 2,
            ..Self::server(num_funcs)
        }
    }
}

/// One static instruction of the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SInstr {
    /// Virtual address.
    pub pc: u64,
    /// Size in bytes.
    pub size: u8,
    /// Kind and operands.
    pub kind: SKind,
}

/// Static instruction kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SKind {
    /// Non-branch, non-memory.
    Alu,
    /// Data load (address synthesized at execution time).
    Load,
    /// Data store.
    Store,
    /// Conditional direct branch.
    Cond {
        /// Global index of the target instruction.
        target_idx: u32,
        /// Taken probability in permille (Bernoulli branches).
        bias_permille: u16,
        /// Loop-counter slot, or `u32::MAX` for Bernoulli behaviour.
        loop_id: u32,
        /// Trip count for loop branches (taken `trips - 1` times, then
        /// falls through).
        trips: u16,
    },
    /// Unconditional direct jump (intra-function).
    Jump {
        /// Global index of the target instruction.
        target_idx: u32,
    },
    /// Direct call.
    Call {
        /// Callee function index.
        callee: u32,
    },
    /// Indirect call through a target table.
    IndirectCall {
        /// Index into [`ProgramImage::tables`].
        table: u32,
    },
    /// Indirect tail-call dispatch (no return push).
    IndirectJump {
        /// Index into [`ProgramImage::tables`].
        table: u32,
    },
    /// The dispatcher's Zipf-weighted handler call.
    DispatchCall,
    /// Function return.
    Return,
}

/// Per-function metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuncMeta {
    /// Global index of the entry instruction.
    pub entry: u32,
    /// Global index one past the return instruction.
    pub end: u32,
    /// Call-graph layer (0 = handler; calls go to strictly deeper layers).
    pub layer: u8,
    /// Entry virtual address.
    pub base: u64,
}

/// Stored form of one instruction: 16 bytes, sized for the common case
/// (see the module docs); `Cond`'s operands live in [`Instrs`]' side
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    pc: u64,
    /// `target_idx` (Jump), `callee` (Call), `table` (IndirectCall,
    /// IndirectJump) or the index of the `Cond` side-table entry; 0 for
    /// kinds without an operand.
    op: u32,
    size: u8,
    tag: Tag,
}

/// Bytes one stored instruction occupies in a [`ProgramImage`] (a
/// conditional branch adds a 12-byte side-table entry).
pub const INSTR_RECORD_BYTES: usize = std::mem::size_of::<Record>();

/// [`SKind`]'s variant, without operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    Alu,
    Load,
    Store,
    Cond,
    Jump,
    Call,
    IndirectCall,
    IndirectJump,
    DispatchCall,
    Return,
}

/// `SKind::Cond`'s operands: 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CondOps {
    target_idx: u32,
    loop_id: u32,
    bias_permille: u16,
    trips: u16,
}

/// The instructions of a [`ProgramImage`], functions concatenated, indexed
/// by global instruction index. Each is stored as one 16-byte record
/// (plus a 12-byte side-table entry for a conditional branch) and read
/// back by value as an [`SInstr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instrs {
    records: Vec<Record>,
    conds: Vec<CondOps>,
}

impl Instrs {
    fn with_capacity(n: usize) -> Self {
        Instrs {
            records: Vec::with_capacity(n),
            conds: Vec::new(),
        }
    }

    fn push(&mut self, SInstr { pc, size, kind }: SInstr) {
        let (tag, op) = match kind {
            SKind::Alu => (Tag::Alu, 0),
            SKind::Load => (Tag::Load, 0),
            SKind::Store => (Tag::Store, 0),
            SKind::Cond {
                target_idx,
                bias_permille,
                loop_id,
                trips,
            } => {
                self.conds.push(CondOps {
                    target_idx,
                    loop_id,
                    bias_permille,
                    trips,
                });
                (Tag::Cond, (self.conds.len() - 1) as u32)
            }
            SKind::Jump { target_idx } => (Tag::Jump, target_idx),
            SKind::Call { callee } => (Tag::Call, callee),
            SKind::IndirectCall { table } => (Tag::IndirectCall, table),
            SKind::IndirectJump { table } => (Tag::IndirectJump, table),
            SKind::DispatchCall => (Tag::DispatchCall, 0),
            SKind::Return => (Tag::Return, 0),
        };
        self.records.push(Record { pc, op, size, tag });
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the image has no instructions.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Virtual address of instruction `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn pc(&self, i: usize) -> u64 {
        self.records[i].pc
    }

    /// Instruction `i`, decoded.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> SInstr {
        let Record { pc, op, size, tag } = self.records[i];
        let kind = match tag {
            Tag::Alu => SKind::Alu,
            Tag::Load => SKind::Load,
            Tag::Store => SKind::Store,
            Tag::Cond => {
                let c = self.conds[op as usize];
                SKind::Cond {
                    target_idx: c.target_idx,
                    bias_permille: c.bias_permille,
                    loop_id: c.loop_id,
                    trips: c.trips,
                }
            }
            Tag::Jump => SKind::Jump { target_idx: op },
            Tag::Call => SKind::Call { callee: op },
            Tag::IndirectCall => SKind::IndirectCall { table: op },
            Tag::IndirectJump => SKind::IndirectJump { table: op },
            Tag::DispatchCall => SKind::DispatchCall,
            Tag::Return => SKind::Return,
        };
        SInstr { pc, size, kind }
    }

    /// Every instruction in index order, decoded.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SInstr> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// A fully generated static program image.
///
/// Its size is dominated by [`Instrs`]: [`INSTR_RECORD_BYTES`] per
/// instruction, so the largest suite image (`server_035`, ≈549k
/// instructions) holds about 9 MB.
#[derive(Debug, Clone)]
pub struct ProgramImage {
    /// Instruction-set flavour.
    pub arch: Arch,
    /// All instructions, functions concatenated.
    pub instrs: Instrs,
    /// Function table; the dispatcher is the last entry.
    pub funcs: Vec<FuncMeta>,
    /// Indirect-call / tail-call target tables (function indices).
    pub tables: Vec<Vec<u32>>,
    /// Handler function indices in Zipf popularity order.
    pub handlers: Vec<u32>,
    /// Zipf sampler over `handlers`.
    pub zipf: Zipf,
    /// Number of loop-counter slots used by `Cond` instructions.
    pub loop_slots: u32,
    /// Dispatcher function index.
    pub dispatcher: u32,
}

impl ProgramImage {
    /// Generate an image from parameters and a seed. Deterministic:
    /// identical inputs yield identical images.
    pub fn generate(params: &SynthParams, seed: u64) -> Self {
        Builder::new(params.clone(), seed).build()
    }

    /// Total static code footprint in bytes (max PC − min PC is
    /// meaningless across regions; this sums per-instruction sizes).
    pub fn code_bytes(&self) -> u64 {
        self.instrs.iter().map(|i| i.size as u64).sum()
    }

    /// Number of static branch instructions.
    pub fn static_branches(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| !matches!(i.kind, SKind::Alu | SKind::Load | SKind::Store))
            .count()
    }

    /// Function index containing the given global instruction index.
    pub fn func_of(&self, idx: u32) -> u32 {
        match self.funcs.binary_search_by(|f| f.entry.cmp(&idx)) {
            Ok(i) => i as u32,
            Err(i) => (i - 1) as u32,
        }
    }
}

struct Builder {
    p: SynthParams,
    rng: SmallRng,
}

/// Intra-function branch slot kinds for [`Builder::intra_hop`].
#[derive(Debug, Clone, Copy)]
enum BranchSlot {
    Cond,
    Jump,
}

struct Skeleton {
    /// Per function: per-instruction sizes.
    sizes: Vec<Vec<u8>>,
    layers: Vec<u8>,
    bases: Vec<u64>,
    /// (base, func index), sorted by base — for distance-targeted callee
    /// search.
    by_base: Vec<(u64, u32)>,
}

/// Region base addresses (< 2^48). Region numbers (bits 47..28) differ, so
/// cross-region branches exceed 25 stored bits and exercise BTB-XC.
const REGION_BASES: [u64; 4] = [
    0x0000_4000_0000, // application image
    0x7f00_0000_0000, // shared library region A
    0x7f80_0000_0000, // shared library region B
    0x5500_0000_0000, // JIT-like region
];

impl Builder {
    fn new(p: SynthParams, seed: u64) -> Self {
        Builder {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_b16b_00b5),
            p,
        }
    }

    fn sample_func_len(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        let mean = if u < self.p.func_size_mix[0] {
            self.p.func_size_means[0]
        } else if u < self.p.func_size_mix[0] + self.p.func_size_mix[1] {
            self.p.func_size_means[1]
        } else {
            self.p.func_size_means[2]
        };
        sample_geometric(&mut self.rng, mean, 4000).max(6) as usize
    }

    fn sample_layer(&mut self) -> u8 {
        // Layer weights: handlers (0) are common, utility layers thin out.
        const W: [f64; MAX_LAYERS] = [0.34, 0.24, 0.16, 0.11, 0.07, 0.05, 0.03];
        let u: f64 = self.rng.gen();
        let mut acc = 0.0;
        for (l, w) in W.iter().enumerate() {
            acc += w;
            if u <= acc {
                return l as u8;
            }
        }
        (MAX_LAYERS - 1) as u8
    }

    fn sample_gap(&mut self) -> u64 {
        let u: f64 = self.rng.gen();
        if u < self.p.big_gap_fraction {
            // Large gap: 64 KB – 512 KB, spreads code across many pages.
            self.rng.gen_range(1u64 << 16..1u64 << 19)
        } else if u < self.p.big_gap_fraction + 0.35 {
            // Medium: 2 KB – 16 KB. A large share of functions start on
            // fresh pages, so branch targets touch many distinct pages —
            // the Page-BTB pressure the paper attributes to server
            // instruction footprints (Section IV-B).
            self.rng.gen_range(1u64 << 11..1u64 << 14)
        } else {
            // Tight packing with alignment padding.
            self.rng.gen_range(0..48)
        }
    }

    fn instr_size(&mut self) -> u8 {
        match self.p.arch {
            Arch::Arm64 => 4,
            Arch::X86 => sample_x86_len(&mut self.rng),
        }
    }

    fn build_skeleton(&mut self) -> Skeleton {
        let n = self.p.num_funcs;
        let mut sizes = Vec::with_capacity(n + 1);
        let mut layers = Vec::with_capacity(n + 1);
        for _ in 0..n {
            let len = self.sample_func_len();
            let s: Vec<u8> = (0..len).map(|_| self.instr_size()).collect();
            sizes.push(s);
            layers.push(self.sample_layer());
        }
        // Dispatcher: 8 fixed instructions, layer is a marker value.
        sizes.push((0..8).map(|_| self.instr_size()).collect());
        layers.push(u8::MAX);

        // Region assignment: app-heavy, libraries get the rest.
        let regions = self.p.regions.clamp(1, REGION_BASES.len());
        let mut region_of = vec![0usize; n + 1];
        for r in region_of.iter_mut().take(n) {
            let u: f64 = self.rng.gen();
            *r = if u < 0.60 || regions == 1 {
                0
            } else {
                1 + (self.rng.gen_range(0..regions.max(2) - 1))
            };
        }
        region_of[n] = 0; // dispatcher lives in the app image

        // Layout: pack each region in function order with sampled gaps.
        let mut cursors: Vec<u64> = (0..regions).map(|r| REGION_BASES[r]).collect();
        let mut bases = vec![0u64; n + 1];
        for f in 0..=n {
            let r = region_of[f];
            let cursor = &mut cursors[r];
            // 16-byte alignment like a real linker.
            *cursor = (*cursor + 15) & !15;
            bases[f] = *cursor;
            let bytes: u64 = sizes[f].iter().map(|&b| b as u64).sum();
            *cursor += bytes + self.sample_gap();
        }

        let mut by_base: Vec<(u64, u32)> = (0..n as u32).map(|f| (bases[f as usize], f)).collect();
        by_base.sort_unstable();

        Skeleton {
            sizes,
            layers,
            bases,
            by_base,
        }
    }

    /// Find a callee function at approximately `distance` bytes from
    /// `from_pc`, restricted to layers strictly deeper than `layer`.
    ///
    /// Candidates farther than 2^28 bytes (a cross-region hop, > 25 stored
    /// bits) are only accepted when the sampled distance itself crossed
    /// that threshold: the > 25-bit population must stay the deliberate
    /// ~1 % tail, not an artifact of sparse layouts.
    fn find_callee(
        &mut self,
        sk: &Skeleton,
        from_pc: u64,
        distance: u64,
        layer: u8,
    ) -> Option<u32> {
        if sk.by_base.is_empty() {
            return None;
        }
        let max_dist = if distance >= (1 << 28) {
            u64::MAX
        } else {
            1u64 << 28
        };
        let forward = self.rng.gen_bool(0.5);
        let desired = if forward {
            from_pc.saturating_add(distance)
        } else {
            from_pc.saturating_sub(distance)
        };
        let start = sk.by_base.partition_point(|&(base, _)| base < desired);
        // Scan outward from the insertion point for the nearest deeper-
        // layer function; remember an out-of-range fallback separately.
        let mut best: Option<(u64, u32)> = None;
        let mut fallback: Option<(u64, u32)> = None;
        let lim = 128usize;
        let n = sk.by_base.len();
        for step in 0..lim {
            let mut consider = |i: usize| {
                let (base, f) = sk.by_base[i];
                if sk.layers[f as usize] > layer && sk.layers[f as usize] != u8::MAX {
                    let err = base.abs_diff(desired);
                    if base.abs_diff(from_pc) <= max_dist {
                        if best.is_none_or(|(e, _)| err < e) {
                            best = Some((err, f));
                        }
                    } else if fallback.is_none_or(|(e, _)| err < e) {
                        fallback = Some((err, f));
                    }
                }
            };
            if start + step < n {
                consider(start + step);
            }
            if step > 0 && start >= step {
                consider(start - step);
            }
            if best.is_some() && step > 8 {
                break;
            }
        }
        if best.is_none() {
            // Nothing within range near the desired point: take the
            // nearest in-range candidate around the call site itself.
            let home = sk.by_base.partition_point(|&(base, _)| base < from_pc);
            for step in 0..lim {
                let mut consider = |i: usize| {
                    let (base, f) = sk.by_base[i];
                    if sk.layers[f as usize] > layer
                        && sk.layers[f as usize] != u8::MAX
                        && base.abs_diff(from_pc) <= max_dist
                    {
                        let err = base.abs_diff(from_pc);
                        if best.is_none_or(|(e, _)| err < e) {
                            best = Some((err, f));
                        }
                    }
                };
                if home + step < n {
                    consider(home + step);
                }
                if step > 0 && home >= step {
                    consider(home - step);
                }
                if best.is_some() && step > 8 {
                    break;
                }
            }
        }
        best.or(fallback).map(|(_, f)| f)
    }

    fn build(mut self) -> ProgramImage {
        let sk = self.build_skeleton();
        let n = self.p.num_funcs;

        let mut instrs = Instrs::with_capacity(sk.sizes.iter().map(Vec::len).sum());
        let mut funcs: Vec<FuncMeta> = Vec::with_capacity(n + 1);
        let mut tables: Vec<Vec<u32>> = Vec::new();
        let mut loop_slots = 0u32;

        for f in 0..n {
            let entry = instrs.len() as u32;
            let len = sk.sizes[f].len();
            let layer = sk.layers[f];
            // Each instruction's pc: the function base plus the sizes
            // before it.
            let mut pc = sk.bases[f];
            for i in 0..len {
                let size = sk.sizes[f][i];
                let kind = if i == len - 1 {
                    SKind::Return
                } else if self.rng.gen_bool(self.p.branch_density) && i + 2 < len {
                    self.branch_kind(
                        &sk,
                        f,
                        i,
                        entry,
                        len,
                        pc,
                        layer,
                        &mut tables,
                        &mut loop_slots,
                    )
                } else {
                    let u: f64 = self.rng.gen();
                    if u < self.p.load_fraction {
                        SKind::Load
                    } else if u < self.p.load_fraction + self.p.store_fraction {
                        SKind::Store
                    } else {
                        SKind::Alu
                    }
                };
                instrs.push(SInstr { pc, size, kind });
                pc += size as u64;
            }
            funcs.push(FuncMeta {
                entry,
                end: instrs.len() as u32,
                layer,
                base: sk.bases[f],
            });
        }

        // Dispatcher: Load, Alu, DispatchCall, Alu, Store, Alu,
        // always-taken back-edge, Return (unreachable).
        let entry = instrs.len() as u32;
        let dk = [
            SKind::Load,
            SKind::Alu,
            SKind::DispatchCall,
            SKind::Alu,
            SKind::Store,
            SKind::Alu,
            SKind::Cond {
                target_idx: entry,
                bias_permille: 1000,
                loop_id: u32::MAX,
                trips: 0,
            },
            SKind::Return,
        ];
        let mut pc = sk.bases[n];
        for (kind, &size) in dk.into_iter().zip(&sk.sizes[n]) {
            instrs.push(SInstr { pc, size, kind });
            pc += size as u64;
        }
        funcs.push(FuncMeta {
            entry,
            end: instrs.len() as u32,
            layer: u8::MAX,
            base: sk.bases[n],
        });

        // Handlers: layer-0 functions, shuffled so popularity is not
        // correlated with address; fall back to every function if layering
        // left none at layer 0.
        let mut handlers: Vec<u32> = (0..n as u32)
            .filter(|&f| sk.layers[f as usize] == 0)
            .collect();
        if handlers.is_empty() {
            handlers = (0..n as u32).collect();
        }
        handlers.shuffle(&mut self.rng);
        let zipf = Zipf::new(handlers.len(), self.p.zipf_s);

        ProgramImage {
            arch: self.p.arch,
            instrs,
            funcs,
            tables,
            handlers,
            zipf,
            loop_slots,
            dispatcher: n as u32,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn branch_kind(
        &mut self,
        sk: &Skeleton,
        _f: usize,
        i: usize,
        entry: u32,
        len: usize,
        pc: u64,
        layer: u8,
        tables: &mut Vec<Vec<u32>>,
        loop_slots: &mut u32,
    ) -> SKind {
        if self.rng.gen_bool(self.p.early_return_fraction) {
            return SKind::Return;
        }
        let mix = self.p.kind_mix;
        let u: f64 = self.rng.gen_range(0.0..mix.total());
        if u < mix.cond {
            // Conditional: backward loop or forward skip. Loop back-edges
            // only appear once the body is deep enough to host a 5-bit-ish
            // hop (hot loops live in non-trivial bodies); the probability
            // is scaled up to keep the overall dynamic loop share.
            let backward = i >= 20 && self.rng.gen_bool((self.p.loop_fraction * 2.2).min(1.0));
            if backward {
                let hop = self.intra_hop(BranchSlot::Cond, i).max(12.min(i - 1));
                let target_local = i - hop;
                let trips = sample_geometric(&mut self.rng, self.p.mean_loop_trips, 48) as u16 + 1;
                let loop_id = *loop_slots;
                *loop_slots += 1;
                SKind::Cond {
                    target_idx: entry + target_local as u32,
                    bias_permille: 0, // unused for loop branches
                    loop_id,
                    trips,
                }
            } else {
                self.forward_cond(entry, i, len)
            }
        } else if u < mix.cond + mix.jump {
            let hop = self.intra_hop(BranchSlot::Jump, len - 1 - i);
            SKind::Jump {
                target_idx: entry + (i + hop) as u32,
            }
        } else if u < mix.cond + mix.jump + mix.call {
            // Clamp to the region span so only deliberately sampled tails
            // cross regions (the paper's >25-bit branches are ~1 %).
            let dist = self
                .p
                .offsets
                .call
                .sample_distance(&mut self.rng)
                .min(1 << 27);
            match self.find_callee(sk, pc, dist, layer) {
                Some(callee) => SKind::Call { callee },
                // Leaf layer: degrade to a conditional (leaf code is
                // branchy, not jumpy; this also keeps the dynamic kind mix
                // stable when a leaf becomes hot).
                None => self.forward_cond(entry, i, len),
            }
        } else if u < mix.cond + mix.jump + mix.call + mix.icall {
            match self.make_table(sk, pc, layer, 2, 6) {
                Some(t) => {
                    tables.push(t);
                    SKind::IndirectCall {
                        table: (tables.len() - 1) as u32,
                    }
                }
                None => self.forward_cond(entry, i, len),
            }
        } else {
            match self.make_table(sk, pc, layer, 2, 8) {
                Some(t) => {
                    tables.push(t);
                    SKind::IndirectJump {
                        table: (tables.len() - 1) as u32,
                    }
                }
                None => self.forward_cond(entry, i, len),
            }
        }
    }

    /// A forward conditional with realistic bias: most conditionals are
    /// strongly biased (real direction predictors reach 95 %+ accuracy);
    /// a small fraction are genuinely data-dependent.
    fn forward_cond(&mut self, entry: u32, i: usize, len: usize) -> SKind {
        let hop = self.intra_hop(BranchSlot::Cond, len - 1 - i);
        let u: f64 = self.rng.gen();
        let bias = if u < 0.42 {
            // Guard/loop-like: almost always taken.
            self.rng.gen_range(935..=997)
        } else if u < 0.92 {
            // Error/slow-path skip: almost never taken.
            self.rng.gen_range(3..=90)
        } else {
            // Data-dependent: hard to predict.
            self.rng.gen_range(300..=700)
        };
        SKind::Cond {
            target_idx: entry + (i + hop) as u32,
            bias_permille: bias,
            loop_id: u32::MAX,
            trips: 0,
        }
    }

    /// Pick an intra-function hop (in instructions) toward a target at a
    /// distance sampled from the kind's offset profile, *truncated* to the
    /// `avail` instructions the function can host: over-long samples are
    /// re-drawn in the achievable window so small functions do not
    /// collapse every branch to a 1–4-bit offset.
    fn intra_hop(&mut self, slot: BranchSlot, avail: usize) -> usize {
        if avail <= 2 {
            return avail.max(1);
        }
        let avg_size = match self.p.arch {
            Arch::Arm64 => 4.0,
            Arch::X86 => 4.1,
        };
        let dist = match slot {
            BranchSlot::Cond => self.p.offsets.cond.sample_distance(&mut self.rng),
            BranchSlot::Jump => self.p.offsets.jump.sample_distance(&mut self.rng),
        };
        let hop = (dist as f64 / avg_size).round() as usize;
        if hop <= avail {
            return hop.max(2).min(avail);
        }
        // The sampled distance exceeds what this function can host. Real
        // code in that situation spans "as far as the function allows"
        // (skip-to-exit, loop-over-body), so redraw in the top half of the
        // achievable range rather than collapsing to a short hop — this is
        // what keeps small functions from flooding the 1–4-bit buckets.
        let lo = (avail / 2).max(2);
        self.rng.gen_range(lo..=avail)
    }

    fn make_table(
        &mut self,
        sk: &Skeleton,
        pc: u64,
        layer: u8,
        min: usize,
        max: usize,
    ) -> Option<Vec<u32>> {
        let k = self.rng.gen_range(min..=max);
        let mut t = Vec::with_capacity(k);
        for _ in 0..k {
            let dist = self.p.offsets.ijump.sample_distance(&mut self.rng);
            t.push(self.find_callee(sk, pc, dist, layer)?);
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_image() -> ProgramImage {
        ProgramImage::generate(&SynthParams::server(80), 42)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ProgramImage::generate(&SynthParams::server(60), 7);
        let b = ProgramImage::generate(&SynthParams::server(60), 7);
        assert_eq!(a.instrs, b.instrs);
        assert_eq!(a.funcs, b.funcs);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ProgramImage::generate(&SynthParams::server(60), 7);
        let b = ProgramImage::generate(&SynthParams::server(60), 8);
        assert_ne!(a.instrs, b.instrs);
    }

    #[test]
    fn every_function_ends_with_return() {
        let img = small_image();
        for f in &img.funcs {
            assert_eq!(
                img.instrs.get((f.end - 1) as usize).kind,
                SKind::Return,
                "function at {:#x}",
                f.base
            );
        }
    }

    #[test]
    fn pcs_are_monotone_within_functions() {
        let img = small_image();
        for f in &img.funcs {
            let mut prev = None;
            for i in f.entry..f.end {
                let pc = img.instrs.pc(i as usize);
                if let Some(p) = prev {
                    assert!(pc > p);
                }
                prev = Some(pc);
            }
        }
    }

    #[test]
    fn all_pcs_fit_48_bit_va() {
        let img = small_image();
        for i in img.instrs.iter() {
            assert!(i.pc < 1u64 << 48);
        }
    }

    #[test]
    fn cond_targets_stay_in_function() {
        let img = small_image();
        for f in &img.funcs {
            for i in f.entry..f.end {
                if let SKind::Cond { target_idx, .. } | SKind::Jump { target_idx } =
                    img.instrs.get(i as usize).kind
                {
                    assert!(
                        (f.entry..f.end).contains(&target_idx),
                        "target escapes function"
                    );
                }
            }
        }
    }

    #[test]
    fn calls_go_to_deeper_layers() {
        let img = small_image();
        for f in &img.funcs {
            if f.layer == u8::MAX {
                continue;
            }
            for i in f.entry..f.end {
                if let SKind::Call { callee } = img.instrs.get(i as usize).kind {
                    assert!(
                        img.funcs[callee as usize].layer > f.layer,
                        "call edge violates layering"
                    );
                }
            }
        }
    }

    #[test]
    fn tables_reference_deeper_layers() {
        let img = small_image();
        for f in &img.funcs {
            if f.layer == u8::MAX {
                continue;
            }
            for i in f.entry..f.end {
                let table = match img.instrs.get(i as usize).kind {
                    SKind::IndirectCall { table } | SKind::IndirectJump { table } => table,
                    _ => continue,
                };
                for &callee in &img.tables[table as usize] {
                    assert!(img.funcs[callee as usize].layer > f.layer);
                }
            }
        }
    }

    #[test]
    fn dispatcher_is_last_function() {
        let img = small_image();
        let d = img.funcs[img.dispatcher as usize];
        assert_eq!(d.layer, u8::MAX);
        assert!(matches!(
            img.instrs.get((d.entry + 2) as usize).kind,
            SKind::DispatchCall
        ));
    }

    #[test]
    fn handlers_are_layer_zero() {
        let img = small_image();
        for &h in &img.handlers {
            assert_eq!(img.funcs[h as usize].layer, 0);
        }
        assert!(!img.handlers.is_empty());
    }

    #[test]
    fn server_footprint_scales_with_funcs() {
        let small = ProgramImage::generate(&SynthParams::server(50), 3);
        let large = ProgramImage::generate(&SynthParams::server(500), 3);
        assert!(large.code_bytes() > 4 * small.code_bytes());
        assert!(large.static_branches() > 4 * small.static_branches());
    }

    #[test]
    fn func_of_maps_indices_back() {
        let img = small_image();
        for (fi, f) in img.funcs.iter().enumerate() {
            assert_eq!(img.func_of(f.entry), fi as u32);
            assert_eq!(img.func_of(f.end - 1), fi as u32);
        }
    }

    #[test]
    fn x86_images_have_variable_sizes() {
        let mut p = SynthParams::server(60);
        p.arch = Arch::X86;
        let img = ProgramImage::generate(&p, 11);
        let distinct: std::collections::HashSet<u8> = img.instrs.iter().map(|i| i.size).collect();
        assert!(distinct.len() > 4, "x86 sizes should vary");
    }

    #[test]
    fn code_spans_multiple_regions() {
        let img = ProgramImage::generate(&SynthParams::server(300), 5);
        let regions: std::collections::HashSet<u64> = img
            .funcs
            .iter()
            .map(|f| btbx_core::offset::region_number(f.base))
            .collect();
        assert!(regions.len() >= 2, "expected multi-region layout");
        assert!(
            regions.len() <= 4,
            "PDede's 4-entry Region-BTB should suffice"
        );
    }
}
