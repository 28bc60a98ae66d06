//! Dense `f32` tensor substrate for the `gnnopt` GNN computational-graph
//! optimizer.
//!
//! The paper's operators move per-vertex and per-edge *feature matrices*
//! around, so everything in this crate is oriented around row-major 2-D
//! matrices (`[rows, cols]`), with a general n-d shape kept for forward
//! compatibility. The crate deliberately has no external array dependency:
//! the executor (`gnnopt-exec`) needs full control over allocation so the
//! simulated memory counters stay truthful.
//!
//! # Example
//!
//! ```
//! use gnnopt_tensor::Tensor;
//!
//! # fn main() -> Result<(), gnnopt_tensor::TensorError> {
//! let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok(())
//! # }
//! ```

mod elementwise;
mod error;
pub mod fault;
pub mod gemm;
mod init;
mod linalg;
pub mod parallel;
pub mod pool;
mod reduce;
pub mod rowops;
mod tensor;

pub use error::TensorError;
pub use init::XavierInit;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Absolute tolerance used by [`Tensor::allclose`] and the test oracles.
pub const DEFAULT_ATOL: f32 = 1e-4;

/// Relative tolerance used by [`Tensor::allclose`] and the test oracles.
pub const DEFAULT_RTOL: f32 = 1e-4;
