//! Monitor configuration: how access modes map onto information flow.

use extsec_acl::AccessMode;
use extsec_mac::{FlowCheck, FlowPolicy};
use serde::{Deserialize, Serialize};

/// How the extension-interaction modes relate to the mandatory lattice.
///
/// The paper specifies the lattice rules for read and write but leaves the
/// mandatory treatment of `execute` and `extend` open. DESIGN.md §3 pins a
/// conservative default and §6 calls the choice out for ablation; this
/// enum is the knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MacInteraction {
    /// `execute` observes the service (results flow back to the caller);
    /// `extend` is exempt against the interface label because the paper
    /// explicitly wants "extensions with different security classes ...
    /// all allowed to extend the same system service" — the mandatory
    /// flow constraint is enforced at *dispatch* time instead (a handler
    /// is only selected for callers whose class dominates the handler's
    /// registration class). The default.
    #[default]
    FlowAware,
    /// Like `FlowAware`, but `extend` is additionally treated as an
    /// append into the interface node (object must dominate the
    /// extension). Stricter than the paper; kept as an ablation arm.
    ExtendAsAppend,
    /// `execute` and `extend` are exempt from mandatory checks; only the
    /// discretionary ACL governs them. Matches systems that label only
    /// data objects, not code.
    Exempt,
}

/// Configuration of the reference monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// The mandatory flow policy (overwrite rule).
    pub flow: FlowPolicy,
    /// How `execute`/`extend` interact with the lattice.
    pub mac_interaction: MacInteraction,
    /// Whether path traversal requires per-level visibility (`list` under
    /// DAC, observation under MAC) on every interior node. Disabling this
    /// reduces protection to the final node only; kept as a knob because
    /// figure F3 measures its cost.
    pub check_visibility: bool,
    /// Whether decisions are recorded in the audit log.
    pub audit: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            flow: FlowPolicy::default(),
            mac_interaction: MacInteraction::default(),
            check_visibility: true,
            audit: true,
        }
    }
}

impl MonitorConfig {
    /// Maps an access mode to the flow check it induces under this
    /// configuration.
    pub fn flow_check(&self, mode: AccessMode) -> FlowCheck {
        match mode {
            AccessMode::Read | AccessMode::List => FlowCheck::Observe,
            AccessMode::Write | AccessMode::Delete => FlowCheck::Overwrite,
            AccessMode::WriteAppend => FlowCheck::Append,
            // Changing an ACL both observes the old state and modifies it.
            AccessMode::Administrate => FlowCheck::ObserveAndModify,
            AccessMode::Execute => match self.mac_interaction {
                MacInteraction::FlowAware | MacInteraction::ExtendAsAppend => FlowCheck::Observe,
                MacInteraction::Exempt => FlowCheck::Exempt,
            },
            AccessMode::Extend => match self.mac_interaction {
                MacInteraction::FlowAware | MacInteraction::Exempt => FlowCheck::Exempt,
                MacInteraction::ExtendAsAppend => FlowCheck::Append,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_maps_execute_to_observe_and_extend_to_exempt() {
        let cfg = MonitorConfig::default();
        assert_eq!(cfg.flow_check(AccessMode::Execute), FlowCheck::Observe);
        assert_eq!(cfg.flow_check(AccessMode::Extend), FlowCheck::Exempt);
    }

    #[test]
    fn extend_as_append_ablation() {
        let cfg = MonitorConfig {
            mac_interaction: MacInteraction::ExtendAsAppend,
            ..MonitorConfig::default()
        };
        assert_eq!(cfg.flow_check(AccessMode::Execute), FlowCheck::Observe);
        assert_eq!(cfg.flow_check(AccessMode::Extend), FlowCheck::Append);
    }

    #[test]
    fn exempt_mode_skips_mac_for_code_modes_only() {
        let cfg = MonitorConfig {
            mac_interaction: MacInteraction::Exempt,
            ..MonitorConfig::default()
        };
        assert_eq!(cfg.flow_check(AccessMode::Execute), FlowCheck::Exempt);
        assert_eq!(cfg.flow_check(AccessMode::Extend), FlowCheck::Exempt);
        // Data modes keep their flow semantics.
        assert_eq!(cfg.flow_check(AccessMode::Read), FlowCheck::Observe);
        assert_eq!(cfg.flow_check(AccessMode::Write), FlowCheck::Overwrite);
    }

    #[test]
    fn data_mode_mapping() {
        let cfg = MonitorConfig::default();
        assert_eq!(cfg.flow_check(AccessMode::WriteAppend), FlowCheck::Append);
        assert_eq!(cfg.flow_check(AccessMode::List), FlowCheck::Observe);
        assert_eq!(cfg.flow_check(AccessMode::Delete), FlowCheck::Overwrite);
        assert_eq!(
            cfg.flow_check(AccessMode::Administrate),
            FlowCheck::ObserveAndModify
        );
    }
}
