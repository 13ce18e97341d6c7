//! # socflow-data
//!
//! Synthetic edge-vision datasets and data-parallel partitioners for the
//! SoCFlow reproduction.
//!
//! The paper evaluates on CIFAR-10, EMNIST, Fashion-MNIST, CelebA and
//! CINIC-10. Those datasets are not redistributable inside this repository
//! and their identity is irrelevant to the paper's systems claims, so this
//! crate generates *synthetic stand-ins* with matching geometry:
//!
//! - each class has a random smooth prototype image;
//! - each sample is its class prototype plus structured per-sample noise and
//!   a random shift, plus optional label noise;
//! - dataset presets mirror the originals' input shape, class count and
//!   (scaled) sample count.
//!
//! The resulting tasks are genuinely learnable-but-not-trivial: INT8
//! training, large per-group batch sizes and delayed aggregation all degrade
//! accuracy on them the way they do on the real datasets, which is what the
//! accuracy experiments need.
//!
//! [`iid_partition`] and [`dirichlet_partition`] shard a dataset across
//! SoCs: IID shuffle-shards for SoCFlow and the synchronous baselines,
//! Dirichlet non-IID clients for the federated ones. The [`stream`] module models live per-SoC
//! ingestion: seeded rate-heterogeneity profiles, stateless
//! position-indexed sample streams, and bounded ingest buffers that
//! backpressure the stream when full.
//!
//! ## Example
//!
//! ```
//! use socflow_data::{iid_partition, Dataset, DatasetPreset};
//!
//! let d = Dataset::synthetic(DatasetPreset::Cifar10.synthetic_spec(128, 8, 42));
//! assert_eq!((d.len(), d.channels(), d.classes()), (128, 3, 10));
//! let shards = iid_partition(d.len(), 4, 0);
//! assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 128);
//! ```

#![deny(missing_docs)]

mod dataset;
mod partition;
mod presets;
pub mod stream;

pub use dataset::{Batch, BatchIter, Dataset, SyntheticSpec};
pub use partition::{dirichlet_partition, iid_partition};
pub use presets::{DatasetPreset, PresetSpec};
pub use stream::{IngestBuffer, RateProfile, StreamSource};
