//! Scheduling and optimization mechanisms for Bayesian inference jobs
//! — the paper's contribution (Sections V and VI).
//!
//! * [`predictor`] — static LLC-miss prediction from modeled data size
//!   (Figure 3), fitted once and pinned as [`predictor::suite`];
//! * [`scheduler`] — platform selection: LLC-bound jobs to the
//!   big-LLC server, the rest to the high-frequency one
//!   (Section V-B, the 1.16× result);
//! * [`elision`] — computation elision via runtime convergence
//!   detection (Section VI-A, Figure 5);
//! * [`dse`] — design-space exploration over cores × chains ×
//!   iterations with the energy oracle (Section VI-B, Figures 6–7);
//! * [`pipeline`] — the composed mechanism and its overall speedup
//!   over the naive baseline (Figure 8, the 5.8× headline).

pub mod dse;
pub mod elision;
pub mod pipeline;
pub mod predictor;
pub mod scheduler;
pub mod subsample;

pub use dse::{DesignPoint, DesignSpace};
pub use elision::{ElisionStudy, StudyConfig};
pub use pipeline::{core_split, CoreSplit, OverallResult, Pipeline};
pub use predictor::LlcMissPredictor;
pub use scheduler::{PlatformChoice, PlatformScheduler};
pub use subsample::{SubsampleAdvice, SubsampleAdvisor};
