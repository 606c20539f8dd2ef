//! The frozen reference interpreter: the host-speed yardstick every timed
//! unit of work is divided by.
//!
//! On a shared host, identical emulator work varies run to run with
//! contention from neighbours, not with scheduling. An ALU loop cannot see
//! that noise; a small bytecode interpreter with the same shape as the
//! emulator's hot path can: 64 KiB of pseudo-random opcodes dispatched
//! through an indirect branch (a jump table), with data-dependent loads
//! from a table — run once over a 4 MiB table and once over a 256 KiB one.
//! Its measured rate `R_measured`, taken from fixed slices interleaved with
//! the workload, rescales each unit's time to the nominal host speed
//! `R_NOMINAL_MOPS`.
//!
//! Everything here is frozen: the program, the tables, the step counts and
//! the expected checksums. Any edit to the kernel changes its rate and so
//! silently rescales every normalized number — the checksum self-test
//! catches such an edit, and `R_NOMINAL_MOPS` must never be re-tuned
//! without re-baselining the benchmark.

use std::hint::black_box;
use std::time::Instant;

/// Bytes of interpreted program (two bytes per instruction).
const CODE_BYTES: usize = 64 * 1024;
/// Seed of the frozen program and tables.
const GEN_SEED: u64 = 0x005E_ED0F_BE4C_4D41;

/// Steps of the untimed warm-up that precedes every timed slice: it
/// refills caches and branch predictors with the interpreter's own
/// working set, so the workload's footprint does not leak into the
/// reference.
const WARMUP_STEPS: u64 = 100_000;
/// Steps of one timed slice.
const SLICE_STEPS: u64 = 300_000;

/// The two frozen tables, as (words, checksum of a warm-up run, checksum of
/// a timed slice). The 4 MiB table makes the interpreter memory-bound, so
/// it tracks cache and memory contention; the 256 KiB table fits in L2 and
/// leaves it dispatch-bound like the emulator's hot path, so it tracks
/// contention for the core. Either alone missed episodes the other saw.
const TABLES: [(usize, u64, u64); 2] = [
    (1 << 20, 0x11D4_D645_212D_6F8A, 0xDDFA_2A37_0DB2_742F),
    (1 << 16, 0x9486_A850_91C6_AC3F, 0x38FA_F2D8_5343_685C),
];

/// Nominal reference rate in million interpreted steps per second (the
/// geometric mean over both tables): the host speed every normalized
/// metric is expressed at. Frozen.
pub const R_NOMINAL_MOPS: f64 = 55.0;

/// SplitMix64, inlined so the frozen stream cannot change under us.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference: one frozen program over each table.
pub struct RefInterp {
    kernels: Vec<Kernel>,
}

impl RefInterp {
    /// Generates the frozen program and tables.
    pub fn new() -> RefInterp {
        let mut state = GEN_SEED;
        let code: Vec<u8> = (0..CODE_BYTES).map(|_| (splitmix(&mut state) >> 56) as u8).collect();
        let kernels = TABLES
            .iter()
            .map(|&(words, warm, slice)| Kernel {
                code: code.clone(),
                table: (0..words).map(|_| splitmix(&mut state) as u32).collect(),
                sums: (warm, slice),
            })
            .collect();
        RefInterp { kernels }
    }

    /// The self-test: a fixed step count must return the frozen checksum on
    /// each table, so any edit to the kernel (and with it the meaning of
    /// `R_NOMINAL_MOPS`) is caught before a single number is reported.
    pub fn self_test(&self) -> Result<(), String> {
        for kernel in &self.kernels {
            let got = kernel.run(WARMUP_STEPS);
            if got != kernel.sums.0 {
                return Err(format!(
                    "reference interpreter self-test: checksum {got:#018x}, expected {:#018x} \
                     (the frozen kernel was edited)",
                    kernel.sums.0
                ));
            }
        }
        Ok(())
    }

    /// One measurement: on each table an untimed warm-up, then a timed
    /// slice. Returns the geometric mean of the rates in million steps per
    /// second.
    pub fn measure(&self) -> Result<f64, String> {
        let mut product = 1.0;
        for kernel in &self.kernels {
            black_box(kernel.run(black_box(WARMUP_STEPS)));
            let start = Instant::now();
            let sum = kernel.run(black_box(SLICE_STEPS));
            let secs = start.elapsed().as_secs_f64();
            if sum != kernel.sums.1 {
                return Err(format!(
                    "reference slice checksum {sum:#018x} != {:#018x}",
                    kernel.sums.1
                ));
            }
            product *= SLICE_STEPS as f64 / secs / 1e6;
        }
        Ok(product.powf(1.0 / self.kernels.len() as f64))
    }
}

/// The interpreter over one table: every run starts from the same register
/// state, so equal step counts do equal work.
struct Kernel {
    code: Vec<u8>,
    table: Vec<u32>,
    /// Frozen checksums of a warm-up run and of a timed slice.
    sums: (u64, u64),
}

impl Kernel {
    /// Interprets `steps` instructions from the initial state and returns
    /// a checksum of the final state.
    #[inline(never)]
    pub fn run(&self, steps: u64) -> u64 {
        let code = black_box(&self.code[..]);
        let table = black_box(&self.table[..]);
        let mask = table.len() - 1;
        let mut r = [0x1234_5678u32, 0x9ABC_DEF0, 0x0F1E_2D3C, 0x4B5A_6978, 1, 2, 3, 5];
        let mut acc: u64 = 0xCBF2_9CE4_8422_2325;
        let mut pc = 0usize;
        for _ in 0..steps {
            let op = code[pc];
            let arg = code[pc + 1];
            pc = (pc + 2) & (CODE_BYTES - 1);
            let a = usize::from(arg & 7);
            let b = usize::from((arg >> 3) & 7);
            match op & 15 {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] ^= r[b].rotate_left(u32::from(arg >> 6) + 1),
                2 => r[a] = r[a].wrapping_mul(r[b] | 1),
                3 => r[a] = r[a].wrapping_sub(u32::from(arg)),
                4..=6 => {
                    // Data-dependent load: the cache-missing part.
                    let index = (r[b] ^ (acc as u32)) as usize & mask;
                    r[a] = r[a].wrapping_add(table[index]);
                }
                7 => {
                    let index = (r[a].wrapping_mul(0x9E37_79B9) >> 12) as usize;
                    acc = acc.rotate_left(5) ^ u64::from(table[index & mask]);
                }
                8 => acc = (acc ^ u64::from(r[a])).wrapping_mul(0x0100_0000_01B3),
                9 => {
                    // Conditional relative branch.
                    if r[a] & 1 != 0 {
                        pc = (pc + usize::from(arg) * 2) & (CODE_BYTES - 1);
                    }
                }
                10 => {
                    // Computed jump.
                    pc = (r[a] as usize).wrapping_mul(2) & (CODE_BYTES - 1);
                    r[a] = r[a].wrapping_add(0x6D2B_79F5);
                }
                11 => r[a] = r[b] >> (arg >> 5),
                12 => r[a] = r[a].rotate_right(u32::from(arg & 31)) ^ 0xA5A5_5A5A,
                13 => {
                    let index = (r[a] as usize).wrapping_add(usize::from(arg)) & mask;
                    r[b] ^= table[index];
                }
                14 => r[a] = r[a].abs_diff(r[b]),
                _ => acc = acc.wrapping_add(u64::from(r[a] ^ r[b])),
            }
        }
        r.iter().fold(acc ^ pc as u64, |h, &v| (h ^ u64::from(v)).wrapping_mul(0x0100_0000_01B3))
    }
}
