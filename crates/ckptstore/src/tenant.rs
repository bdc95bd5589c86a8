//! Per-tenant storage namespaces: byte quotas and retention policies.
//!
//! A multi-tenant daemon (`dmtcpd`) gives every session its own image
//! namespace under [`tenant_prefix`]. The store keeps a ledger per tenant:
//! commits into a tenant's namespace charge the physical bytes they stored
//! (chunks after dedup, plus the manifest), and when a generation expires
//! under the tenant's retention window its charge is credited back. The
//! ledger is an *admission-control* account, not exact disk usage —
//! content-addressed chunks shared across tenants are charged to whichever
//! tenant stored them first — which is the right bias for quotas: a tenant
//! can only be over-charged by bytes it actually caused to be written.
//!
//! Quotas are enforced by the service layer *before* a checkpoint is
//! issued ([`mtcp::ImageStore::commit`] has no error path; rejecting
//! mid-image would tear the generation). The store's job is to keep the
//! account current and answer [`over_quota`].

use crate::manifest::Lineage;
use oskit::world::World;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Storage policy for one tenant.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Ledger ceiling in bytes; 0 means unlimited.
    pub quota_bytes: u64,
    /// Generations of each image kept for this tenant (overrides the
    /// store-wide [`crate::Config::retention`] inside its namespace).
    pub retention: u32,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            quota_bytes: 0,
            retention: 4,
        }
    }
}

/// One tenant's live account.
#[derive(Debug, Clone)]
pub struct TenantState {
    /// Policy in force.
    pub cfg: TenantConfig,
    /// Bytes currently charged to the tenant.
    pub used_bytes: u64,
    /// Small numeric id (registration order) used as the metrics label.
    pub id: u64,
    /// Charge per committed manifest, so expiry credits exactly what the
    /// commit charged.
    per_manifest: BTreeMap<String, u64>,
}

/// The world's tenant table, by name (a typed world extension).
#[derive(Default)]
struct Tenants(BTreeMap<String, TenantState>);

fn tenant<'w>(w: &'w World, name: &str) -> Option<&'w TenantState> {
    w.ext_ref::<Tenants>()?.0.get(name)
}

/// Register (or re-register, replacing the policy of) tenant `name`.
/// Usage carries over across re-registration.
pub fn register_tenant(w: &mut World, name: &str, cfg: TenantConfig) {
    let map = &mut w.ext::<Tenants>().0;
    let next_id = map.len() as u64;
    map.entry(name.to_string())
        .and_modify(|s| s.cfg = cfg.clone())
        .or_insert(TenantState {
            cfg,
            used_bytes: 0,
            id: next_id,
            per_manifest: BTreeMap::new(),
        });
}

/// Root of tenant `name`'s image namespace.
pub fn tenant_prefix(name: &str) -> String {
    format!("/ckpt/tenants/{name}")
}

/// Which tenant owns `path`, if it lies inside a tenant namespace.
pub fn tenant_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("/ckpt/tenants/")?;
    let name = rest.split('/').next()?;
    (!name.is_empty()).then_some(name)
}

/// Bytes currently charged to tenant `name` (None if unregistered).
pub fn usage(w: &World, name: &str) -> Option<u64> {
    tenant(w, name).map(|s| s.used_bytes)
}

/// The tenant's registered policy, if any.
pub fn policy(w: &World, name: &str) -> Option<TenantConfig> {
    tenant(w, name).map(|s| s.cfg.clone())
}

/// Is the tenant's ledger at or above its quota? Unregistered tenants and
/// zero quotas are never over.
pub fn over_quota(w: &World, name: &str) -> bool {
    tenant(w, name).is_some_and(|s| s.cfg.quota_bytes > 0 && s.used_bytes >= s.cfg.quota_bytes)
}

/// Retention window for an image at `path`: the owning tenant's policy
/// inside a tenant namespace, the store-wide default elsewhere.
pub(crate) fn retention_for(w: &World, path: &str, default: u32) -> u32 {
    let Some(name) = tenant_of(path) else {
        return default;
    };
    policy(w, name).map(|c| c.retention).unwrap_or(default)
}

/// Charge `bytes` stored on behalf of the commit that wrote `manifest`.
pub(crate) fn charge(w: &mut World, name: &str, manifest: &str, bytes: u64) {
    let Some(s) = w.ext::<Tenants>().0.get_mut(name) else {
        return;
    };
    *s.per_manifest.entry(manifest.to_string()).or_insert(0) += bytes;
    s.used_bytes += bytes;
    let (id, used) = (s.id, s.used_bytes);
    w.obs
        .metrics
        .set_gauge("ckptstore.tenant_bytes", id, used as f64);
    w.obs.metrics.add("ckptstore.tenant_charged", id, bytes);
}

/// Credit back whatever the commit of `manifest` charged (generation
/// expired under retention). Idempotent: a second credit is a no-op.
pub(crate) fn credit(w: &mut World, name: &str, manifest: &str) {
    let Some(s) = w.ext::<Tenants>().0.get_mut(name) else {
        return;
    };
    let Some(bytes) = s.per_manifest.remove(manifest) else {
        return;
    };
    s.used_bytes = s.used_bytes.saturating_sub(bytes);
    let (id, used) = (s.id, s.used_bytes);
    w.obs
        .metrics
        .set_gauge("ckptstore.tenant_bytes", id, used as f64);
}

/// Credit the generations a commit pushes out of its image's retention
/// window — found among the ledger's own keys, so a service that commits
/// without end pays for the window, not for its age.
pub(crate) fn credit_expired(w: &mut World, name: &str, expiring: &Lineage) {
    let Some(s) = tenant(w, name) else {
        return;
    };
    let from_prefix = (Bound::Included(expiring.prefix.as_str()), Bound::Unbounded);
    let keys = s.per_manifest.range::<str, _>(from_prefix);
    for manifest in expiring.expired_among(keys.map(|(k, _)| k.as_str())) {
        credit(w, name, &manifest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit::program::Registry;
    use oskit::HwSpec;

    #[test]
    fn namespace_parsing() {
        assert_eq!(
            tenant_of("/ckpt/tenants/acme/ckpt_1_gen2.dmtcp"),
            Some("acme")
        );
        assert_eq!(
            tenant_of(&format!("{}/img", tenant_prefix("t7"))),
            Some("t7")
        );
        assert_eq!(tenant_of("/ckpt/ckpt_1_gen2.dmtcp"), None);
        assert_eq!(tenant_of("/ckpt/tenants/"), None);
    }

    #[test]
    fn ledger_charges_and_credits() {
        let mut w = World::new(HwSpec::cluster(), 1, Registry::new());
        register_tenant(
            &mut w,
            "acme",
            TenantConfig {
                quota_bytes: 100,
                retention: 2,
            },
        );
        assert_eq!(usage(&w, "acme"), Some(0));
        assert!(!over_quota(&w, "acme"));
        charge(&mut w, "acme", "/m/gen1", 60);
        charge(&mut w, "acme", "/m/gen2", 50);
        assert_eq!(usage(&w, "acme"), Some(110));
        assert!(over_quota(&w, "acme"));
        credit(&mut w, "acme", "/m/gen1");
        credit(&mut w, "acme", "/m/gen1"); // idempotent
        assert_eq!(usage(&w, "acme"), Some(50));
        assert!(!over_quota(&w, "acme"));
        // Unregistered tenants never gate admission.
        assert!(!over_quota(&w, "ghost"));
        assert_eq!(usage(&w, "ghost"), None);
    }

    #[test]
    fn retention_follows_the_owning_tenant() {
        let mut w = World::new(HwSpec::cluster(), 1, Registry::new());
        register_tenant(
            &mut w,
            "acme",
            TenantConfig {
                quota_bytes: 0,
                retention: 9,
            },
        );
        let inside = format!("{}/ckpt_1_gen3.dmtcp", tenant_prefix("acme"));
        assert_eq!(retention_for(&w, &inside, 4), 9);
        assert_eq!(retention_for(&w, "/ckpt/ckpt_1_gen3.dmtcp", 4), 4);
        let unregistered = format!("{}/img", tenant_prefix("ghost"));
        assert_eq!(retention_for(&w, &unregistered, 4), 4);
    }
}
