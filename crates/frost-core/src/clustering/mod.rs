//! Clusterings, union-find and duplicate-clustering algorithms.
//!
//! The output of a complete matching solution is a disjoint clustering of
//! the dataset (§1.2). This module provides the [`Clustering`] type, the
//! [`Contingency`] table every comparison of two clusterings reads, the
//! CSR [`Adjacency`] the graph kernels walk, the
//! pair-counting [`UnionFind`] that powers both diagram engines
//! (Appendix D), transitive [`closure`] utilities, and the
//! duplicate-clustering [`algorithms`] referenced by the paper for
//! non-closed match sets.

mod adjacency;
#[allow(clippy::module_inception)]
mod clustering;
mod contingency;
mod union_find;

pub mod algorithms;
pub mod closure;

pub use adjacency::Adjacency;
pub use clustering::Clustering;
pub use contingency::Contingency;
pub use union_find::UnionFind;
