//! Group-size selection (paper §3.1, "Determining group size"): the
//! first-epoch-accuracy heuristic — profile growing group counts during
//! warm-up and stop at the first count whose first-epoch accuracy collapses
//! (Fig. 6 shows first-epoch accuracy mirrors converged accuracy). The
//! paper's Eq. 1, which says why more groups are faster, is priced by
//! [`crate::timemodel::TimeModel::socflow_epoch`].

/// Outcome of the warm-up group-count search.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupChoice {
    /// The chosen group count.
    pub groups: usize,
    /// The `(candidate, first_epoch_accuracy)` profile that was gathered.
    pub profile: Vec<(usize, f32)>,
}

/// The first-epoch-accuracy heuristic: profile candidate group counts
/// (1, 2, 4, … up to `max_groups`), halting at the first candidate whose
/// first-epoch accuracy falls below the cliff — `max(abs_floor,
/// rel_floor · acc(1))` — and returning the largest pre-cliff candidate.
///
/// The paper describes halting where accuracy "falls significantly,
/// typically to around 15 %"; `abs_floor = 0.15`, `rel_floor = 0.5` encode
/// that rule.
///
/// # Panics
/// Panics if `max_groups == 0`.
pub fn choose_group_count(
    max_groups: usize,
    abs_floor: f32,
    rel_floor: f32,
    mut profile_fn: impl FnMut(usize) -> f32,
) -> GroupChoice {
    assert!(max_groups > 0, "need at least one candidate");
    let mut profile = Vec::new();
    let mut candidate = 1usize;
    let mut best = 1usize;
    let mut base_acc = None;
    while candidate <= max_groups {
        let acc = profile_fn(candidate);
        profile.push((candidate, acc));
        let base = *base_acc.get_or_insert(acc);
        let cliff = abs_floor.max(rel_floor * base);
        if candidate > 1 && acc < cliff {
            break; // this candidate collapsed; keep the previous one
        }
        best = candidate;
        if candidate == max_groups {
            break;
        }
        // clamp the last probe to `max_groups` so non-power-of-two budgets
        // (e.g. 12 SoCs) get profiled at their actual ceiling instead of
        // stopping at the largest power of two below it
        candidate = (candidate * 2).min(max_groups);
    }
    GroupChoice {
        groups: best,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eq. 1 as the time model prices it: all groups consume data in
    /// parallel and synchronize inside smaller groups, so more groups mean
    /// a shorter epoch — the speed the heuristic trades against accuracy.
    #[test]
    fn epoch_time_decreases_with_groups() {
        use crate::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
        use crate::mapping::integrity_greedy;
        use crate::planning::divide_communication_groups;
        use crate::timemodel::TimeModel;
        use socflow_cluster::ClusterSpec;
        use socflow_data::DatasetPreset;
        use socflow_nn::models::ModelKind;

        let epoch = |groups: usize| {
            let model = TimeModel::new(&TrainJobSpec::new(
                ModelKind::Vgg11,
                DatasetPreset::Cifar10,
                MethodSpec::SocFlow(SocFlowConfig::with_groups(groups)),
            ));
            let mapping = integrity_greedy(&ClusterSpec::for_socs(32), 32, groups);
            let cgs = divide_communication_groups(&mapping).unwrap();
            model.socflow_epoch(&mapping, &cgs, true, 1.0).time
        };
        let (t1, t8, t32) = (epoch(1), epoch(8), epoch(32));
        assert!(t8 < t1, "{t8} < {t1}");
        assert!(t32 < t8, "{t32} < {t8}");
    }

    #[test]
    fn heuristic_stops_at_cliff() {
        // synthetic profile: fine until 8 groups, collapses at 16
        let acc = |n: usize| -> f32 {
            match n {
                1 | 2 | 4 | 8 => 0.6 - 0.02 * (n as f32).log2(),
                _ => 0.12,
            }
        };
        let choice = choose_group_count(32, 0.15, 0.5, acc);
        assert_eq!(choice.groups, 8);
        assert_eq!(choice.profile.len(), 5); // probed 1,2,4,8,16
    }

    #[test]
    fn heuristic_accepts_all_when_no_cliff() {
        let choice = choose_group_count(32, 0.15, 0.5, |_| 0.7);
        assert_eq!(choice.groups, 32);
    }

    #[test]
    fn heuristic_probes_non_power_of_two_ceiling() {
        // max_groups = 12: the probe sequence must be 1, 2, 4, 8, 12 — the
        // final candidate clamps to the budget instead of stopping at 8
        let mut probed = Vec::new();
        let choice = choose_group_count(12, 0.15, 0.5, |n| {
            probed.push(n);
            0.7
        });
        assert_eq!(probed, vec![1, 2, 4, 8, 12]);
        assert_eq!(choice.groups, 12);
        assert_eq!(choice.profile.len(), 5);
    }

    #[test]
    fn heuristic_keeps_one_group_for_hard_tasks() {
        // accuracy collapses immediately at 2 groups
        let choice = choose_group_count(32, 0.15, 0.5, |n| if n == 1 { 0.5 } else { 0.1 });
        assert_eq!(choice.groups, 1);
    }

    #[test]
    fn relative_floor_matters_for_strong_baselines() {
        // base accuracy 0.9; 0.4 is above abs floor but below 0.5·0.9
        let choice = choose_group_count(8, 0.15, 0.5, |n| if n <= 2 { 0.9 } else { 0.4 });
        assert_eq!(choice.groups, 2);
    }
}
