//! Dense vector kernels shared by the iterative solvers.
//!
//! These are deliberately plain loops over slices: at the sizes SGLA works
//! with (vectors of length `n` = number of graph nodes) LLVM autovectorizes
//! them well, and keeping them allocation-free matters more than manual SIMD.

/// Dot product `xᵀy`.
///
/// **Summation order is a contract:** one accumulator, started at `-0.0`
/// (the identity `Iterator::sum` uses for floats) and added to left to
/// right. The symmetric KNN micro-kernel in `mvag_graph::knn` keeps one
/// accumulator per pair in exactly this order, so its similarities equal
/// this function's bit for bit; reassociating this sum would break that.
///
/// # Panics
/// Debug-asserts that the slices have equal length; in release builds the
/// shorter length wins (standard `zip` semantics), which is never intended —
/// callers must pass equal-length slices.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).fold(-0.0, |acc, (a, b)| acc + a * b)
}

/// Euclidean norm `‖x‖₂`, computed with a scaling guard against overflow.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    let max = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if max == 0.0 || !max.is_finite() {
        return if max == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let sum: f64 = x.iter().map(|v| (v / max) * (v / max)).sum();
    max * sum.sqrt()
}

/// `y ← y + alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Normalizes `x` to unit Euclidean norm in place, returning the original
/// norm. If the norm is (near) zero the vector is left untouched and `0.0`
/// is returned so callers can detect breakdown.
#[inline]
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > f64::MIN_POSITIVE {
        let inv = 1.0 / n;
        scale(inv, x);
        n
    } else {
        0.0
    }
}

/// Squared Euclidean distance `‖x − y‖²`.
#[inline]
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dist2: length mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum()
}

/// Cosine similarity between two vectors; returns `0.0` if either vector is
/// all-zero (the convention used for KNN graph construction — zero-attribute
/// nodes are simply dissimilar from everything).
#[inline]
pub fn cosine(x: &[f64], y: &[f64]) -> f64 {
    let nx = norm2(x);
    let ny = norm2(y);
    if nx <= f64::MIN_POSITIVE || ny <= f64::MIN_POSITIVE {
        return 0.0;
    }
    (dot(x, y) / (nx * ny)).clamp(-1.0, 1.0)
}

/// Copies `src` into `dst` (equal lengths required).
#[inline]
pub fn copy(src: &[f64], dst: &mut [f64]) {
    debug_assert_eq!(src.len(), dst.len(), "copy: length mismatch");
    dst.copy_from_slice(src);
}

/// Sets every element of `x` to zero.
#[inline]
pub fn zero(x: &mut [f64]) {
    for v in x.iter_mut() {
        *v = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm2_basic() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn norm2_overflow_guard() {
        // Naive sum of squares would overflow to inf; the scaled version
        // must not.
        let big = 1e200;
        let n = norm2(&[big, big]);
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-14);
    }

    #[test]
    fn axpy_basic() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn normalize_unit() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-15);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_reports_breakdown() {
        let mut x = vec![0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn cosine_parallel_and_orthogonal() {
        assert!((cosine(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-15);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-15);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-15);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn dist2_basic() {
        assert_eq!(dist2(&[1.0, 2.0], &[4.0, 6.0]), 25.0);
    }
}
