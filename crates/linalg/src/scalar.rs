//! The element types the generic kernels are instantiated for.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::complex::Complex;
use crate::workspace::Workspace;

mod sealed {
    use crate::workspace::Workspace;

    /// Closes [`Scalar`](super::Scalar) to the two types below and carries the
    /// crate-private hook that picks each type's [`Workspace`] pool.
    pub trait Sealed: Sized {
        fn pool(ws: &mut Workspace) -> &mut Vec<Vec<Self>>;
    }
}

/// A matrix element type: `f64` or [`Complex`].
///
/// Every dense, banded and block-tridiagonal kernel of this crate is written
/// once over `Scalar` and instantiated for both types, so the real
/// matrix-geometric path and the complex spectral path run the same code.
/// The trait is sealed.  Its arithmetic is plain IEEE `+ − × ÷` on the
/// components with no fused multiply-add, so a kernel's result depends only on
/// the order of its operations, which the kernels fix per output element.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + PartialEq
    + fmt::Debug
    + fmt::Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + Div<f64, Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + MulAssign<f64>
    + Sum
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;

    /// Absolute value (the modulus for [`Complex`]); the pivot measure of the
    /// LU factorisations.
    fn modulus(self) -> f64;

    /// `true` when every component is finite.
    fn is_finite(self) -> bool;

    /// Embeds a real number.
    fn from_real(x: f64) -> Self;
}

impl sealed::Sealed for f64 {
    fn pool(ws: &mut Workspace) -> &mut Vec<Vec<f64>> {
        &mut ws.real
    }
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;

    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    #[inline]
    fn from_real(x: f64) -> f64 {
        x
    }
}

impl sealed::Sealed for Complex {
    fn pool(ws: &mut Workspace) -> &mut Vec<Vec<Complex>> {
        &mut ws.complex
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;
    const ONE: Complex = Complex::ONE;

    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn is_finite(self) -> bool {
        Complex::is_finite(self)
    }

    #[inline]
    fn from_real(x: f64) -> Complex {
        Complex::from_real(x)
    }
}
