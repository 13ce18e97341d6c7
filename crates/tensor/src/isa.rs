//! Runtime ISA decision: which of the three kernel instantiations runs.
//!
//! The release binary is compiled for the x86-64 *baseline* (SSE2), so the
//! hot kernels of [`crate::linalg`], [`crate::quant`], [`crate::sweep`] and
//! [`crate::Tensor::abs_max`] exist three times: the portable instantiation
//! (what rustc emits for the crate's target), an AVX2 one and an AVX-512
//! one. All three are the *same* `#[inline(always)]` source — `isa_kernel!`
//! inlines it once plainly and once into each `#[target_feature]` entry
//! point — so wider lanes change which elements are computed together,
//! never any element's sequence of roundings. The gradient noise of
//! [`crate::quant`] takes a parameter per level, its AVX-512 `i64`
//! conversion. The hand-written kernels are the two i8 GEMMs of
//! [`crate::linalg`] (AVX2), the AVX-512 bodies of the direct
//! convolution ([`crate::conv`]) and the AVX-512 f32 GEMM panel: the
//! `= body, avx512: wide;` form of `isa_kernel!` gives that level its own
//! body, an explicit register tile (up to 8 × 32, 12 × 32 for `Aᵀ × B`,
//! 12 × 16 on the last columns) whose every output is still the
//! ascending-`p` sum of a separate multiply and add.
//!
//! **Three levels, one rule:** AVX-512 when the host reports F, DQ, BW and
//! VL (every AVX-512 server since Skylake-SP has all four; the entry point
//! enables them together), else AVX2 when it reports AVX2, else portable.
//! The third level pays where the ledger is hot: a 512-bit multiply and
//! add do twice the work of AVX2's, the three f32 GEMMs are 55–59 % of
//! `train_mixed`'s kernel time, and on the 2-vCPU Sapphire Rapids
//! reference host the first AVX-512 panel (an autovectorized 4 × 32 tile)
//! took its `wall_s` to ×0.87 and ×0.89 on seeds 11 and 12 (ten
//! alternating pairs each, `benchmark/README.md`). The explicit tiles that
//! replaced it hold 16 or 24 accumulators (12 on the last columns) instead
//! of eight and check their bounds once per panel: serially ×0.52–0.84 of its time on
//! `train_ring_fp32`'s GEMM shapes, the same in every codegen partition.
//!
//! **No `fma`, although AVX-512F implies it.** The AVX2 entry point enables
//! `avx2` alone, so there is no fused instruction to select; the AVX-512
//! one cannot withhold FMA (the feature implies it). What keeps every
//! `a * b + c` a separate multiply and add there is that Rust never marks a
//! float operation contractable, so LLVM may not fuse it. The unit tests
//! hold all three instantiations to each other `to_bits()`.
//!
//! The host is inspected once per process ([`Isa::active`]); kernels read
//! the decision once per call, outside every loop. There is no knob: no
//! cargo feature, flag or environment variable selects the path.

use std::sync::OnceLock;

/// The instruction set a kernel call runs on: portable, AVX2 or AVX-512.
///
/// The field is private, so a value above portable exists only if this
/// module saw the host report the features — that is what makes handing an
/// `Isa` to a kernel safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    level: Level,
}

/// The levels in ascending order: each one's host runs every lower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    Portable,
    Avx2,
    Avx512,
}

impl Isa {
    /// The crate target's baseline instantiation; valid on every host.
    /// Tests name it to pin the instantiations against each other.
    #[cfg(test)]
    pub(crate) const PORTABLE: Isa = Isa {
        level: Level::Portable,
    };

    /// The decision for this process, made on first use.
    pub fn active() -> Isa {
        static ACTIVE: OnceLock<Isa> = OnceLock::new();
        *ACTIVE.get_or_init(|| Isa::choose(host_has_avx2(), host_has_avx512()))
    }

    /// The highest level the host reports.
    fn choose(host_avx2: bool, host_avx512: bool) -> Isa {
        let level = if host_avx512 {
            Level::Avx512
        } else if host_avx2 {
            Level::Avx2
        } else {
            Level::Portable
        };
        Isa { level }
    }

    /// `"avx512"`, `"avx2"` or `"portable"`, as `bench kernels` and `info`
    /// report it.
    pub fn name(self) -> &'static str {
        match self.level {
            Level::Avx512 => "avx512",
            Level::Avx2 => "avx2",
            Level::Portable => "portable",
        }
    }

    /// Whether the host runs AVX2 code: kernels at both upper levels.
    #[inline]
    pub(crate) fn has_avx2(self) -> bool {
        self.level >= Level::Avx2
    }

    /// Whether kernels take their AVX-512 entry point.
    #[inline]
    pub(crate) fn has_avx512(self) -> bool {
        self.level == Level::Avx512
    }
}

#[cfg(target_arch = "x86_64")]
fn host_has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// The four features the AVX-512 entry point of `isa_kernel!` enables.
#[cfg(target_arch = "x86_64")]
fn host_has_avx512() -> bool {
    use std::arch::is_x86_feature_detected as has;
    has!("avx512f") && has!("avx512dq") && has!("avx512bw") && has!("avx512vl")
}

#[cfg(not(target_arch = "x86_64"))]
fn host_has_avx2() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn host_has_avx512() -> bool {
    false
}

/// Defines `fn name(isa: Isa, args…)` with three instantiations of the
/// `#[inline(always)]` function `body(args…)`: a plain call (the portable
/// path) and, on x86-64, calls from inside an
/// `#[target_feature(enable = "avx2")]` entry point and an
/// `#[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]` one,
/// where the inlined body is compiled with 256- and 512-bit lanes. `isa`
/// picks between them once per call. `= body, avx512: wide;` compiles
/// `wide` at the AVX-512 level instead, for a body that takes a const
/// parameter per level (a tile width, or an instruction only AVX-512 has).
macro_rules! isa_kernel {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
            = $body:path, avx512: $wide:path;
    ) => {
        $(#[$meta])*
        $vis fn $name(isa: $crate::isa::Isa, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
                fn avx512($($arg: $ty),*) $(-> $ret)? {
                    $wide($($arg),*)
                }
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                if isa.has_avx512() {
                    // SAFETY: an `Isa` reports AVX-512 only after
                    // `is_x86_feature_detected!` held for all four
                    // features on this host.
                    return unsafe { avx512($($arg),*) };
                }
                if isa.has_avx2() {
                    // SAFETY: an `Isa` reports AVX2 only after
                    // `is_x86_feature_detected!("avx2")` held on this host.
                    return unsafe { avx2($($arg),*) };
                }
            }
            let _ = isa;
            $body($($arg),*)
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:path;
    ) => {
        $crate::isa::isa_kernel! {
            $(#[$meta])*
            $vis fn $name($($arg: $ty),*) $(-> $ret)? = $body, avx512: $body;
        }
    };
}
pub(crate) use isa_kernel;

/// The AVX2 instantiation for a test that pins it against the portable
/// one, or `None` with a printed skip on a host without AVX2. An AVX-512
/// host runs it too.
#[cfg(test)]
pub(crate) fn avx2_or_skip(test: &str) -> Option<Isa> {
    let isa = host_has_avx2().then_some(Isa { level: Level::Avx2 });
    if isa.is_none() {
        println!("{test}: skipped, this host has no AVX2");
    }
    isa
}

/// The AVX-512 instantiation for a test that pins it against the others,
/// or `None` with a printed skip on a host without it.
#[cfg(test)]
pub(crate) fn avx512_or_skip(test: &str) -> Option<Isa> {
    let isa = Some(Isa::active()).filter(|isa| isa.has_avx512());
    if isa.is_none() {
        println!("{test}: skipped, this host has no AVX-512");
    }
    isa
}

/// The instantiations above portable that this host runs, each with a
/// printed skip when it cannot: what a cross-instantiation test compares
/// with [`Isa::PORTABLE`].
#[cfg(test)]
pub(crate) fn wide_or_skip(test: &str) -> Vec<Isa> {
    [avx2_or_skip(test), avx512_or_skip(test)]
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_without_avx2_gets_the_portable_path() {
        // the emulated check: whatever this machine has, a host that
        // reports no AVX2 must end up on the baseline instantiation
        assert_eq!(Isa::choose(false, false), Isa::PORTABLE);
        assert!(!Isa::choose(false, false).has_avx2());
        assert_eq!(Isa::choose(false, false).name(), "portable");
        assert_eq!(Isa::choose(true, false).name(), "avx2");
    }

    #[test]
    fn a_host_with_avx512_gets_the_highest_level() {
        assert!(!Isa::choose(true, false).has_avx512());
        let wide = Isa::choose(true, true);
        assert_eq!(wide.name(), "avx512");
        assert!(wide.has_avx512() && wide.has_avx2());
    }

    #[test]
    fn active_matches_the_host_and_is_stable() {
        assert_eq!(Isa::active().has_avx2(), host_has_avx2());
        assert_eq!(Isa::active().has_avx512(), host_has_avx512());
        assert_eq!(Isa::active(), Isa::active());
    }

    #[inline(always)]
    fn sum_body(x: &[f32]) -> f32 {
        x.iter().sum()
    }
    isa_kernel! {
        fn sum(x: &[f32]) -> f32 = sum_body;
    }

    #[inline(always)]
    fn first_body<const W: usize>(x: &[f32]) -> f32 {
        x[W]
    }
    isa_kernel! {
        fn first(x: &[f32]) -> f32 = first_body::<0>, avx512: first_body::<1>;
    }

    #[test]
    fn kernels_run_their_portable_body_when_told_to() {
        let x = [1.0f32, 2.0, 3.5];
        assert_eq!(sum(Isa::PORTABLE, &x), 6.5);
        for isa in [Isa::active()].into_iter().chain(wide_or_skip("sum")) {
            assert_eq!(sum(isa, &x), 6.5);
        }
    }

    #[test]
    fn the_avx512_level_runs_its_own_body() {
        let x = [1.0f32, 2.0];
        assert_eq!(first(Isa::PORTABLE, &x), 1.0);
        if let Some(avx2) = avx2_or_skip("first") {
            assert_eq!(first(avx2, &x), 1.0);
        }
        if let Some(avx512) = avx512_or_skip("first") {
            assert_eq!(first(avx512, &x), 2.0);
        }
    }
}
