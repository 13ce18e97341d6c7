//! Runtime ISA decision: which of the two kernel instantiations runs.
//!
//! The release binary is compiled for the x86-64 *baseline* (SSE2), so the
//! hot kernels of [`crate::linalg`], [`crate::quant`] and
//! [`crate::Tensor::abs_max`] exist twice: the portable instantiation (what
//! rustc emits for the crate's target) and an AVX2 one. Both are the *same*
//! `#[inline(always)]` body — `isa_kernel!` inlines it once plainly and
//! once into an `#[target_feature(enable = "avx2")]` entry point — so wider
//! lanes change which elements are computed together, never any element's
//! sequence of roundings (`fma` is never enabled: Rust does not contract
//! `a * b + c`, and the feature is withheld so LLVM cannot either). The one
//! hand-written kernel is the i8 GEMM of [`crate::linalg`].
//!
//! The host is inspected once per process ([`Isa::active`]); kernels read
//! the decision once per call, outside every loop. There is no knob: no
//! cargo feature, flag or environment variable selects the path.

use std::sync::OnceLock;

/// The instruction set a kernel call runs on: portable or AVX2.
///
/// The field is private, so an AVX2 value exists only if this module saw the
/// host report the feature — that is what makes handing an `Isa` to a kernel
/// safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
}

impl Isa {
    /// The crate target's baseline instantiation; valid on every host.
    /// Tests name it to pin the two instantiations against each other.
    #[cfg(test)]
    pub(crate) const PORTABLE: Isa = Isa { avx2: false };

    /// The decision for this process, made on first use.
    pub fn active() -> Isa {
        static ACTIVE: OnceLock<Isa> = OnceLock::new();
        *ACTIVE.get_or_init(|| Isa::choose(host_has_avx2()))
    }

    /// Two instantiations, no ladder: AVX2 when the host has it.
    fn choose(host_avx2: bool) -> Isa {
        Isa { avx2: host_avx2 }
    }

    /// `"avx2"` or `"portable"`, as `bench kernels` reports it.
    pub fn name(self) -> &'static str {
        if self.avx2 {
            "avx2"
        } else {
            "portable"
        }
    }

    /// Whether kernels take their AVX2 entry point.
    #[inline]
    pub(crate) fn has_avx2(self) -> bool {
        self.avx2
    }
}

#[cfg(target_arch = "x86_64")]
fn host_has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn host_has_avx2() -> bool {
    false
}

/// Defines `fn name(isa: Isa, args…)` with two instantiations of the
/// `#[inline(always)]` function `body(args…)`: a plain call (the portable
/// path) and, on x86-64, a call from inside an
/// `#[target_feature(enable = "avx2")]` entry point, where the inlined body
/// is compiled with 256-bit lanes. `isa` picks between them once per call.
macro_rules! isa_kernel {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:path;
    ) => {
        $(#[$meta])*
        $vis fn $name(isa: $crate::isa::Isa, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
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
}
pub(crate) use isa_kernel;

/// The AVX2 instantiation for a test that pins it against the portable
/// one, or `None` with a printed skip on a host without AVX2.
#[cfg(test)]
pub(crate) fn avx2_or_skip(test: &str) -> Option<Isa> {
    let isa = Some(Isa::active()).filter(|isa| isa.has_avx2());
    if isa.is_none() {
        println!("{test}: skipped, this host has no AVX2");
    }
    isa
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_without_avx2_gets_the_portable_path() {
        // the emulated check: whatever this machine has, a host that
        // reports no AVX2 must end up on the baseline instantiation
        assert_eq!(Isa::choose(false), Isa::PORTABLE);
        assert!(!Isa::choose(false).has_avx2());
        assert_eq!(Isa::choose(false).name(), "portable");
        assert_eq!(Isa::choose(true).name(), "avx2");
    }

    #[test]
    fn active_matches_the_host_and_is_stable() {
        assert_eq!(Isa::active().has_avx2(), host_has_avx2());
        assert_eq!(Isa::active(), Isa::active());
    }

    #[inline(always)]
    fn sum_body(x: &[f32]) -> f32 {
        x.iter().sum()
    }
    isa_kernel! {
        fn sum(x: &[f32]) -> f32 = sum_body;
    }

    #[test]
    fn kernels_run_their_portable_body_when_told_to() {
        let x = [1.0f32, 2.0, 3.5];
        assert_eq!(sum(Isa::PORTABLE, &x), 6.5);
        assert_eq!(sum(Isa::active(), &x), 6.5);
    }
}
