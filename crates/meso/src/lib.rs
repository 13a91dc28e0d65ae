//! # meso — a perceptual memory system
//!
//! A from-scratch implementation of MESO (Kasten & McKinley, IEEE TKDE
//! 19(4), 2007), the classifier used by *Automated Ensemble Extraction
//! and Analysis of Acoustic Data Streams* (DEPSA/ICDCS 2007) to identify
//! bird species from extracted ensembles.
//!
//! MESO is "based on the well-known leader–follower algorithm, an
//! online, incremental technique for clustering a data set. A novel
//! feature of MESO is its use of small agglomerative clusters, called
//! **sensitivity spheres**, that aggregate similar training patterns.
//! Once MESO has been trained, the system can be queried using an
//! unlabeled pattern; MESO tests the new pattern and returns the label
//! associated with the most similar training pattern or a sensitivity
//! sphere containing a set of similar training patterns and their
//! labels" (DEPSA paper, §2).
//!
//! ## What this crate provides
//!
//! - [`Meso`] — incremental training into sensitivity spheres (δ grows
//!   with the running mean nearest-sphere distance), queries by a linear
//!   scan to the nearest sphere and its majority label, and
//!   **incremental pattern removal**, which makes leave-one-out cheap;
//! - [`crossval`] — the paper's experimental protocols: leave-one-out
//!   and resubstitution (§4), with ensemble grouping and vote-based
//!   recognition;
//! - [`confusion::ConfusionMatrix`] — the Table 3 artifact.
//!
//! ## Example
//!
//! ```
//! use meso::{Meso, MesoConfig};
//!
//! let mut memory = Meso::new(2, MesoConfig::default());
//! memory.train(&[0.0, 0.0], 0);
//! memory.train(&[0.1, 0.1], 0);
//! memory.train(&[5.0, 5.0], 1);
//! assert_eq!(memory.classify(&[0.05, 0.02]), Some(0));
//! assert_eq!(memory.classify(&[4.9, 5.2]), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod confusion;
pub mod crossval;
pub mod dataset;
pub mod sphere;

pub use classifier::{Meso, MesoConfig};
pub use confusion::ConfusionMatrix;
pub use crossval::{leave_one_out, resubstitution, CrossValConfig, RunStats};
pub use dataset::{Dataset, Label};
pub use sphere::SensitivitySphere;
