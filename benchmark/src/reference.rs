//! The speed reference: a fixed piece of work of the benchmark's own, run
//! in short slices *inside* every end-to-end simulator repetition, so each
//! host-time reading can be divided by how slow the host was while it was
//! taken.
//!
//! The machine this benchmark runs on is a few cores of a shared host. The
//! same simulator run takes 1.6 s in one minute and 3.4 s in another —
//! clock changes, a neighbour on the core's other hardware thread, pressure
//! on the shared cache — and no statistic over repetitions removes a mood
//! that outlasts the run (see the README). What does is a yardstick that
//! slows down with the program: the reference is timed under the very
//! conditions of the handler calls around it, and a phase's time is reported
//! in *reference seconds* — its own time over the reference's slowdown in
//! that phase. It uses nothing of the repository, so no change to the
//! program can move it.
//!
//! The work is an interpreter loop: a pseudo-random opcode picks one of 256
//! distinct arms, each a few dependent integer operations on two random
//! words of an 8 MiB state. Of the kernels tried (a register chain, eight
//! independent chains, straight-line code, a pointer chase, random writes
//! over 32 MB, block copies, an event heap, this one at several sizes) it
//! follows the simulator's slowdown best, because it is slowed by the same
//! things: instruction fetch over a large body of code, unpredictable
//! indirect branches, and a working set beyond the second-level cache that
//! the handler calls between two slices evict.

use std::time::Instant;

/// Handler calls between two slices. At 1–2 µs per call that is a slice
/// every 5–10 ms, 400–900 per repetition, 2–4 % of its time.
pub const EVERY: u64 = 4096;

/// Interpreter steps per slice.
const STEPS: u32 = 1500;

/// Words of interpreter state: 8 MiB, past the second-level cache and
/// inside the third, like the node state of the simulator workloads.
const WORDS: usize = 1 << 20;

/// What one slice takes on the machine the bounds were measured on while
/// nothing disturbs it, in nanoseconds. It only fixes the unit: a reference
/// second is the time 1e9 / `NOMINAL_SLICE_NS` slices take.
pub const NOMINAL_SLICE_NS: f64 = 65_000.0;

#[inline(always)]
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// One arm per literal; the constants differ from arm to arm, so the
/// compiler cannot merge them and the loop body stays large.
macro_rules! step {
    ($op:expr, $s:expr, $r:expr; $($n:literal)*) => {
        match $op {
            $($n => {
                let i = (($r >> 8) as usize).wrapping_add($n * 37) & (WORDS - 1);
                let j = (($r >> 24) as usize).wrapping_add($n * 101) & (WORDS - 1);
                let (a, b) = ($s[i], $s[j]);
                let v = match $n % 3 {
                    0 => a.wrapping_add(b).rotate_left($n % 63) ^ ($n as u64 * 0x9E37),
                    1 => a.wrapping_mul($n as u64 | 1) ^ (b >> ($n % 31)),
                    _ => (a ^ b).wrapping_sub($n as u64).rotate_right($n % 29),
                };
                if v & (1 << ($n % 17)) != 0 {
                    $s[i] = v;
                } else {
                    $s[j] = v.wrapping_add(a);
                }
            })*
            _ => unreachable!("the opcode is one byte"),
        }
    };
}

/// The interpreter and its state.
pub struct Reference {
    state: Box<[u64; WORDS]>,
    rng: u64,
}

impl Default for Reference {
    fn default() -> Self {
        let state: Vec<u64> = (0..WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        Reference {
            state: state.try_into().expect("WORDS words were collected"),
            rng: 88_172_645_463_325_252,
        }
    }
}

impl Reference {
    /// Runs one slice — always the same number of steps — and returns how
    /// long it took, in nanoseconds.
    pub fn slice(&mut self) -> u64 {
        let t = Instant::now();
        self.run(STEPS);
        t.elapsed().as_nanos() as u64
    }

    #[inline(never)]
    fn run(&mut self, steps: u32) {
        let s = &mut self.state;
        let mut r = self.rng;
        for _ in 0..steps {
            r = xorshift(r);
            let op = r & 255;
            step!(op, s, r;
                0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
                32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59
                60 61 62 63 64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79 80 81 82 83 84 85 86 87
                88 89 90 91 92 93 94 95 96 97 98 99 100 101 102 103 104 105 106 107 108 109 110 111
                112 113 114 115 116 117 118 119 120 121 122 123 124 125 126 127 128 129 130 131 132
                133 134 135 136 137 138 139 140 141 142 143 144 145 146 147 148 149 150 151 152 153
                154 155 156 157 158 159 160 161 162 163 164 165 166 167 168 169 170 171 172 173 174
                175 176 177 178 179 180 181 182 183 184 185 186 187 188 189 190 191 192 193 194 195
                196 197 198 199 200 201 202 203 204 205 206 207 208 209 210 211 212 213 214 215 216
                217 218 219 220 221 222 223 224 225 226 227 228 229 230 231 232 233 234 235 236 237
                238 239 240 241 242 243 244 245 246 247 248 249 250 251 252 253 254 255);
        }
        self.rng = r;
    }

    /// A digest of the state: two references that ran the same number of
    /// slices hold the same one.
    #[cfg(test)]
    fn digest(&self) -> u64 {
        self.state
            .iter()
            .fold(self.rng, |h, w| xorshift(h ^ w).wrapping_add(*w))
    }
}

/// Reference time spent in one phase of a repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RefTime {
    pub slices: u64,
    pub ns: u64,
}

impl RefTime {
    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }

    /// How many times slower than nominal the reference ran in this phase;
    /// `None` for a phase too short to hold a slice.
    pub fn slowdown(&self) -> Option<f64> {
        (self.slices > 0).then(|| self.ns as f64 / self.slices as f64 / NOMINAL_SLICE_NS)
    }
}

/// A host-time reading of a phase (wall or CPU seconds, the reference's own
/// slices included) as net host seconds and as reference seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corrected {
    /// The reading without the reference's own time.
    pub host_s: f64,
    /// `host_s` over the reference's slowdown in that phase.
    pub ref_s: f64,
}

/// Takes the reference's own time off `gross_s` and divides the rest by the
/// reference's slowdown; `fallback` is the slowdown used when the phase
/// held no slice.
pub fn corrected(gross_s: f64, reference: RefTime, fallback: f64) -> Corrected {
    let host_s = (gross_s - reference.secs()).max(0.0);
    Corrected {
        host_s,
        ref_s: host_s / reference.slowdown().unwrap_or(fallback),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_is_fixed_work() {
        let (mut a, mut b) = (Reference::default(), Reference::default());
        let fresh = a.digest();
        for _ in 0..3 {
            a.slice();
            b.slice();
        }
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), fresh, "a slice writes the state");
        // Twice the steps from a fresh state is two slices.
        let mut c = Reference::default();
        c.run(2 * STEPS);
        let mut d = Reference::default();
        d.slice();
        d.slice();
        assert_eq!(c.digest(), d.digest());
    }

    #[test]
    fn a_reading_is_net_of_the_reference_and_scaled_by_its_slowdown() {
        // 100 slices at twice the nominal time: the host ran at half speed.
        let r = RefTime {
            slices: 100,
            ns: (200.0 * NOMINAL_SLICE_NS) as u64,
        };
        assert_eq!(r.slowdown(), Some(2.0));
        let c = corrected(2.0 + r.secs(), r, 1.0);
        assert!((c.host_s - 2.0).abs() < 1e-12 && (c.ref_s - 1.0).abs() < 1e-12);
        // A phase without a slice takes the fallback.
        let none = RefTime::default();
        assert_eq!(none.slowdown(), None);
        assert_eq!(corrected(3.0, none, 1.5).ref_s, 2.0);
        // CPU ticks are coarser than the reference's clock: never negative.
        assert_eq!(corrected(0.0, r, 1.0).host_s, 0.0);
    }
}
