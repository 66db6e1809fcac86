//! Ablation experiments for the design choices DESIGN.md §6 calls out:
//! each knob is flipped and the behavioural delta asserted end-to-end.

use extsec::scenarios::{applet_scenario, paper_lattice};
use extsec::{
    AccessMode, Acl, AclEntry, ExtensionManifest, FlowPolicy, MacInteraction, ModeSet,
    MonitorConfig, NodeKind, NsPath, Origin, OverwriteRule, Protection, SecurityClass,
    SystemBuilder,
};

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

/// Ablation 2 of DESIGN.md §6 applied to the *-property: under the
/// default `RequireEquality` rule a lower subject cannot overwrite a
/// higher object; under the pure `StarProperty` rule it can (blindly).
#[test]
fn ablation_overwrite_rule() {
    let sc = applet_scenario().unwrap();
    // Default: overwrite-up denied.
    assert!(sc.write("user/profile", &sc.applet_d1, "clobber").is_err());

    // Flip to the pure *-property.
    let mut config = sc.system.monitor.config();
    config.flow = FlowPolicy::new(OverwriteRule::StarProperty);
    sc.system.monitor.set_config(config);
    // Now the department applet may blindly overwrite the user's file —
    // BLP-legal, integrity-hostile; exactly why the paper calls out
    // write-append.
    assert!(sc.write("user/profile", &sc.applet_d1, "clobber").is_ok());
    // Reading it remains impossible either way.
    assert!(sc.read("user/profile", &sc.applet_d1).is_err());
}

/// Ablation 2 proper: the MAC treatment of `extend`. Under the default,
/// extensions of any class may register on a bottom-labelled interface
/// (dispatch enforces flow); under `ExtendAsAppend` a high-classed
/// extension is rejected at registration time.
#[test]
fn ablation_mac_interaction_for_extend() {
    let build = || {
        let mut builder = SystemBuilder::new(paper_lattice());
        builder.principal("dev").unwrap();
        let system = builder.build().unwrap();
        let dev = system.subject("dev", "local:{myself}").unwrap();
        let dev_id = dev.principal;
        system
            .monitor
            .bootstrap(|ns| {
                let visible = Protection::new(
                    Acl::public(ModeSet::only(AccessMode::List)),
                    SecurityClass::bottom(),
                );
                ns.ensure_path(&p("/svc/iface"), NodeKind::Interface, &visible)?;
                let id = ns.insert(
                    &p("/svc/iface"),
                    "op",
                    NodeKind::Procedure,
                    Protection::new(
                        Acl::from_entries([AclEntry::allow_principal_modes(
                            dev_id,
                            ModeSet::parse("xe").unwrap(),
                        )]),
                        SecurityClass::bottom(),
                    ),
                )?;
                ns.set_extensible(id, true)?;
                Ok(())
            })
            .unwrap();
        let src = r#"
module h
func handle(x: int) -> int
  push_int 7
  ret
end
export handle = handle
"#;
        let ext = system
            .load_extension(
                src,
                ExtensionManifest {
                    name: "h".into(),
                    principal: dev_id,
                    origin: Origin::Local,
                    // Statically classed *above* the interface label.
                    static_class: Some(system.class("local:{myself}").unwrap()),
                },
            )
            .unwrap();
        (system, ext)
    };

    // Default (FlowAware): registration succeeds.
    let (system, ext) = build();
    system
        .runtime
        .extend(ext, &p("/svc/iface/op"), "handle")
        .unwrap();

    // ExtendAsAppend: a local-classed extension may not append into a
    // bottom-labelled interface (write-down).
    let (system, ext) = build();
    let mut config = system.monitor.config();
    config.mac_interaction = MacInteraction::ExtendAsAppend;
    system.monitor.set_config(config);
    let e = system
        .runtime
        .extend(ext, &p("/svc/iface/op"), "handle")
        .unwrap_err();
    assert!(matches!(e, extsec::ExtError::Monitor(_)), "got {e:?}");

    // Exempt: registration succeeds again (DAC only).
    let (system, ext) = build();
    let mut config = system.monitor.config();
    config.mac_interaction = MacInteraction::Exempt;
    system.monitor.set_config(config);
    system
        .runtime
        .extend(ext, &p("/svc/iface/op"), "handle")
        .unwrap();
}

/// The `Exempt` interaction also lifts the MAC gate on `execute`: a
/// low subject may call a high-labelled procedure (DAC permitting),
/// which the default forbids.
#[test]
fn ablation_mac_interaction_for_execute() {
    let mut builder = SystemBuilder::new(paper_lattice());
    builder.principal("u").unwrap();
    let system = builder.build().unwrap();
    let u = system.subject("u", "others").unwrap();
    let high = system.class("local:{myself}").unwrap();
    let u_id = u.principal;
    system
        .monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/x"), NodeKind::Domain, &visible)?;
            ns.insert(
                &p("/svc/x"),
                "op",
                NodeKind::Procedure,
                Protection::new(
                    Acl::from_entries([AclEntry::allow_principal(u_id, AccessMode::Execute)]),
                    high.clone(),
                ),
            )?;
            Ok(())
        })
        .unwrap();
    // Default: MAC denies execute-up.
    assert!(!system
        .monitor
        .check(&u, &p("/svc/x/op"), AccessMode::Execute)
        .allowed());
    let mut config = system.monitor.config();
    config.mac_interaction = MacInteraction::Exempt;
    system.monitor.set_config(config);
    assert!(system
        .monitor
        .check(&u, &p("/svc/x/op"), AccessMode::Execute)
        .allowed());
}

/// Per-level visibility: with the knob off, a subject can reach a leaf
/// through an interior node it cannot see — the paper's §2.3 protection
/// of "each level of the hierarchy" is gone.
#[test]
fn ablation_traversal_visibility() {
    let mut builder = SystemBuilder::new(paper_lattice());
    builder.principal("u").unwrap();
    let system = builder.build().unwrap();
    let u = system.subject("u", "others").unwrap();
    let u_id = u.principal;
    system
        .monitor
        .bootstrap(|ns| {
            // /hidden is invisible (empty ACL) but contains a leaf the
            // subject is granted on.
            ns.ensure_path(&p("/hidden"), NodeKind::Domain, &Protection::default())?;
            ns.insert(
                &p("/hidden"),
                "leaf",
                NodeKind::Procedure,
                Protection::new(
                    Acl::from_entries([AclEntry::allow_principal(u_id, AccessMode::Execute)]),
                    SecurityClass::bottom(),
                ),
            )?;
            Ok(())
        })
        .unwrap();
    assert!(!system
        .monitor
        .check(&u, &p("/hidden/leaf"), AccessMode::Execute)
        .allowed());
    let mut config = system.monitor.config();
    config.check_visibility = false;
    system.monitor.set_config(config);
    assert!(system
        .monitor
        .check(&u, &p("/hidden/leaf"), AccessMode::Execute)
        .allowed());
}

/// Audit off stops recording but never changes decisions.
#[test]
fn ablation_audit_is_observation_only() {
    let sc = applet_scenario().unwrap();
    let path = extsec::services::fs::FsService::node_path("dept-1/report").unwrap();
    let before = sc
        .system
        .monitor
        .check(&sc.applet_d2, &path, AccessMode::Read);
    let mut config = sc.system.monitor.config();
    config.audit = false;
    sc.system.monitor.set_config(config);
    sc.system.monitor.audit().clear();
    let after = sc
        .system
        .monitor
        .check(&sc.applet_d2, &path, AccessMode::Read);
    assert_eq!(before, after);
    assert_eq!(sc.system.monitor.audit().len(), 0);
}

/// Snapshot restore is a policy mutation like any other: the restored
/// monitor starts at a bumped generation, and a monitor whose state is
/// rebuilt in place (directory swap + bootstrap, exactly what
/// `from_snapshot` performs) decides exactly as the snapshotted one did.
#[test]
fn ablation_snapshot_restore_invalidates_cache() {
    let sc = applet_scenario().unwrap();
    let path = extsec::services::fs::FsService::node_path("dept-1/report").unwrap();

    let before = sc
        .system
        .monitor
        .check(&sc.applet_d1, &path, AccessMode::Read);
    let generation_at_snapshot = sc.system.monitor.policy_generation();
    let snapshot = sc.system.monitor.snapshot();

    // Taking a snapshot is read-only: the generation does not move.
    assert_eq!(
        sc.system.monitor.policy_generation(),
        generation_at_snapshot
    );

    // Restoring runs the TCB mutators, so the new monitor's generation is
    // already past zero.
    let restored = extsec::ReferenceMonitor::from_snapshot(snapshot).unwrap();
    assert!(
        restored.policy_generation() > 0,
        "restore must bump the generation of the monitor it rebuilds"
    );

    // And the restored monitor replays the snapshot-time decision, first
    // time and every time (principal ids survive the snapshot round-trip).
    let replay_first = restored.check(&sc.applet_d1, &path, AccessMode::Read);
    let replay_again = restored.check(&sc.applet_d1, &path, AccessMode::Read);
    assert_eq!(replay_first, before);
    assert_eq!(replay_again, before);
}

/// The full config matrix never panics and stays self-consistent: for
/// every knob combination, allow-decisions are a subset of the most
/// permissive configuration's.
#[test]
fn ablation_config_matrix_monotonicity() {
    let interactions = [
        MacInteraction::FlowAware,
        MacInteraction::ExtendAsAppend,
        MacInteraction::Exempt,
    ];
    let rules = [OverwriteRule::RequireEquality, OverwriteRule::StarProperty];
    let sc = applet_scenario().unwrap();
    let path = extsec::services::fs::FsService::node_path("user/profile").unwrap();
    let subjects = [&sc.user, &sc.applet_d1, &sc.outsider];
    // The most permissive config: exempt + star + no visibility.
    let permissive = MonitorConfig {
        flow: FlowPolicy::new(OverwriteRule::StarProperty),
        mac_interaction: MacInteraction::Exempt,
        check_visibility: false,
        audit: false,
    };
    let mut permissive_allows = Vec::new();
    sc.system.monitor.set_config(permissive);
    for s in subjects {
        for mode in AccessMode::ALL {
            permissive_allows.push(sc.system.monitor.check(s, &path, mode).allowed());
        }
    }
    for interaction in interactions {
        for rule in rules {
            for visibility in [true, false] {
                let config = MonitorConfig {
                    flow: FlowPolicy::new(rule),
                    mac_interaction: interaction,
                    check_visibility: visibility,
                    audit: false,
                };
                sc.system.monitor.set_config(config);
                let mut i = 0;
                for s in subjects {
                    for mode in AccessMode::ALL {
                        let allowed = sc.system.monitor.check(s, &path, mode).allowed();
                        assert!(
                            !allowed || permissive_allows[i],
                            "{mode} under {config:?} allowed but permissive config denies"
                        );
                        i += 1;
                    }
                }
            }
        }
    }
}
