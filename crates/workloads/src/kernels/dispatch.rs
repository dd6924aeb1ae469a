//! Runtime CPU dispatch for the tile kernels.
//!
//! Every hot kernel has exactly one `#[inline(always)]` body, and
//! [`multiversion!`] compiles it twice: once for the baseline target and
//! once inside a `#[target_feature(enable = "avx2")]` function, so the
//! optimizer can use 256-bit vectors there. Each call picks a copy
//! through [`has_avx2`], which reads the standard library's cached CPUID
//! probe. There is no hand-written intrinsic path.
//!
//! Both copies perform the same rounded operations in the same order for
//! every output element: Rust never contracts `a * b + c` into an FMA
//! (and `fma` is not enabled here anyway), and the bodies never rely on
//! reassociation. The copies are therefore bit-identical, which the
//! replication engine's bitwise replica comparison depends on.

/// Whether the running CPU supports AVX2. `is_x86_feature_detected!`
/// caches its probe, so this is one relaxed atomic load per call.
#[inline]
pub(crate) fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Declares a public kernel `$name` that dispatches between the
/// baseline instantiation of `$body` and an AVX2 instantiation named
/// `$avx2`. Every helper `$body` calls must be `#[inline(always)]` so it
/// is compiled into both copies.
macro_rules! multiversion {
    (
        $(#[$meta:meta])*
        pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
            => $avx2:ident / $body:ident;
    ) => {
        $(#[$meta])*
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if $crate::kernels::dispatch::has_avx2() {
                // SAFETY: the running CPU supports AVX2 (checked above).
                return unsafe { $avx2($($arg),*) };
            }
            $body($($arg),*)
        }

        #[doc = concat!("AVX2 instantiation of `", stringify!($body), "`.")]
        ///
        /// # Safety
        ///
        /// The running CPU must support AVX2.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        pub(crate) unsafe fn $avx2($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }
    };
}

pub(crate) use multiversion;
