//! Per-tenant admission: token-bucket rate limiting and absolute quotas.
//!
//! Every decoded request names a tenant (an entry gate, in BinaryCoP's
//! access-control deployment). Before a frame is allowed anywhere near the
//! shard router it must pass two checks:
//!
//! 1. **Rate**: a token bucket refilled at `rate_per_s` tokens/second up
//!    to a `burst` cap. Buckets are kept in *micro-tokens* (×10⁶) so the
//!    refill math is exact integer arithmetic — `refill(elapsed_ns)` is a
//!    pure function of elapsed time, which is what makes the unit tests
//!    and the chaos harness deterministic.
//! 2. **Quota**: an optional absolute cap on admitted requests, for
//!    tenants sold a fixed budget. Unlike throttling, quota exhaustion is
//!    permanent.
//!
//! A misbehaving tenant can only ever burn its own bucket: the table is
//! keyed by tenant id, so one gate flooding the door never starves the
//! others of admission capacity (shard capacity is protected separately
//! by the engine's own backpressure).

use bcp_sync::Mutex;
use bcp_trace::{Counter, Registry};
use std::collections::HashMap;

/// Micro-tokens per token.
const MICRO: u64 = 1_000_000;

/// How many tenant ids, in order of first sight, get counters of their own
/// (`gateway.tenant.<id>.*`). Every later id counts under
/// `gateway.tenant.other.*`: the id is a `u32` read off the wire, and a
/// client cycling through ids must not grow the registry without bound.
const OWN_SERIES_TENANTS: usize = 64;

/// Admission limits for one tenant (or the table-wide default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Sustained admission rate, tokens (requests) per second.
    pub rate_per_s: u64,
    /// Bucket capacity: how many requests may land back-to-back after an
    /// idle period.
    pub burst: u64,
    /// Absolute lifetime cap on admitted requests, if any.
    pub quota: Option<u64>,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        // Generous defaults: benches override these downward to provoke
        // throttling on purpose.
        TenantPolicy {
            rate_per_s: 10_000,
            burst: 1_000,
            quota: None,
        }
    }
}

/// Outcome of an admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Token taken (and quota consumed); proceed to the router.
    Admitted,
    /// Bucket empty; the client should retry after a refill interval.
    Throttled,
    /// Quota spent; no retry will ever help.
    QuotaExhausted,
}

/// Deterministic token bucket in micro-token units.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    micro: u64,
    burst_micro: u64,
    rate_per_s: u64,
}

impl TokenBucket {
    /// A full bucket.
    pub fn new(rate_per_s: u64, burst: u64) -> TokenBucket {
        let burst_micro = burst.saturating_mul(MICRO);
        TokenBucket {
            micro: burst_micro,
            burst_micro,
            rate_per_s,
        }
    }

    /// Credit `elapsed_ns` nanoseconds of refill. Pure integer math:
    /// `micro += elapsed_ns × rate_per_s / 1000`, clamped to the burst
    /// cap (10⁶ micro-tokens per token, 10⁹ ns per second).
    pub fn refill(&mut self, elapsed_ns: u64) {
        let gained = (elapsed_ns as u128).saturating_mul(self.rate_per_s as u128) / 1000;
        let gained = u64::try_from(gained).unwrap_or(u64::MAX);
        self.micro = self.micro.saturating_add(gained).min(self.burst_micro);
    }

    /// Take one token if available.
    pub fn try_take(&mut self) -> bool {
        if self.micro >= MICRO {
            self.micro = self.micro.saturating_sub(MICRO);
            true
        } else {
            false
        }
    }

    /// Whole tokens currently available (for tests and introspection).
    pub fn available(&self) -> u64 {
        self.micro / MICRO
    }
}

struct TenantEntry {
    bucket: TokenBucket,
    last_ns: u64,
    used: u64,
    quota: Option<u64>,
    admitted: Counter,
    throttled: Counter,
    quota_exhausted: Counter,
}

/// Shared admission state for all tenants.
pub struct TenantTable {
    default_policy: TenantPolicy,
    overrides: HashMap<u32, TenantPolicy>,
    entries: Mutex<HashMap<u32, TenantEntry>>,
    registry: Registry,
}

impl TenantTable {
    /// Table where every tenant gets `default_policy` until overridden.
    /// Its `gateway.tenant.*` counters go to `registry`, or to a registry
    /// of its own when `None`.
    pub fn new(default_policy: TenantPolicy, registry: Option<Registry>) -> TenantTable {
        TenantTable {
            default_policy,
            overrides: HashMap::new(),
            entries: Mutex::new(HashMap::new()),
            registry: registry.unwrap_or_default(),
        }
    }

    /// Pin a specific policy for one tenant (builder-style, pre-serving).
    pub fn with_override(mut self, tenant: u32, policy: TenantPolicy) -> TenantTable {
        self.overrides.insert(tenant, policy);
        self
    }

    /// Policy that applies to `tenant`.
    pub fn policy_of(&self, tenant: u32) -> TenantPolicy {
        self.overrides
            .get(&tenant)
            .copied()
            .unwrap_or(self.default_policy)
    }

    // audit: cold — per-tenant state is created once per tenant lifetime,
    // not per request; the steady-state admit path only touches an
    // existing entry.
    fn make_entry(&self, tenant: u32, own_series: bool) -> TenantEntry {
        let policy = self.policy_of(tenant);
        let series = if own_series {
            tenant.to_string()
        } else {
            "other".to_owned()
        };
        let c = |suffix: &str| {
            self.registry
                .counter(&format!("gateway.tenant.{series}.{suffix}"))
        };
        TenantEntry {
            bucket: TokenBucket::new(policy.rate_per_s, policy.burst),
            last_ns: 0,
            used: 0,
            quota: policy.quota,
            admitted: c("admitted"),
            throttled: c("throttled"),
            quota_exhausted: c("quota_exhausted"),
        }
    }

    /// Run the admission check for one request. `now_ns` is a monotonic
    /// nanosecond clock (the gateway uses time since server start);
    /// passing it explicitly keeps the bucket math deterministic under
    /// test.
    // bcp:hot-path — every decoded request passes through admission
    pub fn admit(&self, tenant: u32, now_ns: u64) -> Admission {
        // audit: allow(block): per-table mutex; held for O(1) bucket math,
        // no I/O or allocation in the steady state.
        let mut entries = self.entries.lock();
        let own_series = entries.len() < OWN_SERIES_TENANTS;
        // audit: allow(alloc): first-sight tenant registration only; the
        // entry (and its interned counter names) live for the table's
        // lifetime.
        let entry = entries
            .entry(tenant)
            .or_insert_with(|| self.make_entry(tenant, own_series));
        let elapsed = now_ns.saturating_sub(entry.last_ns);
        entry.last_ns = now_ns;
        entry.bucket.refill(elapsed);
        if let Some(q) = entry.quota {
            if entry.used >= q {
                entry.quota_exhausted.inc();
                return Admission::QuotaExhausted;
            }
        }
        if entry.bucket.try_take() {
            entry.used = entry.used.saturating_add(1);
            entry.admitted.inc();
            Admission::Admitted
        } else {
            entry.throttled.inc();
            Admission::Throttled
        }
    }

    /// Requests admitted so far for `tenant`.
    pub fn used(&self, tenant: u32) -> u64 {
        self.entries.lock().get(&tenant).map_or(0, |e| e.used)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;

    #[test]
    fn bucket_starts_full_and_drains() {
        let mut b = TokenBucket::new(10, 3);
        assert_eq!(b.available(), 3);
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take());
    }

    #[test]
    fn refill_math_is_exact() {
        let mut b = TokenBucket::new(1000, 10);
        while b.try_take() {}
        // 1000 tokens/s = 1 token per millisecond.
        b.refill(1_000_000);
        assert_eq!(b.available(), 1);
        b.refill(500_000);
        b.refill(500_000);
        assert_eq!(b.available(), 2);
        // Refill never exceeds burst.
        b.refill(3_600_000_000_000);
        assert_eq!(b.available(), 10);
    }

    #[test]
    fn refill_saturates_on_hostile_inputs() {
        let mut b = TokenBucket::new(u64::MAX, u64::MAX);
        b.refill(u64::MAX);
        assert!(b.try_take());
    }

    #[test]
    fn admission_throttles_past_burst() {
        let t = TenantTable::new(
            TenantPolicy {
                rate_per_s: 1000,
                burst: 5,
                quota: None,
            },
            None,
        );
        let mut admitted = 0;
        for _ in 0..8 {
            if t.admit(7, 0) == Admission::Admitted {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 5);
        assert_eq!(t.admit(7, 0), Admission::Throttled);
        // One millisecond later there is exactly one fresh token.
        assert_eq!(t.admit(7, 1_000_000), Admission::Admitted);
        assert_eq!(t.admit(7, 1_000_000), Admission::Throttled);
    }

    #[test]
    fn quota_is_permanent_and_per_tenant() {
        let t = TenantTable::new(
            TenantPolicy {
                rate_per_s: 1_000_000,
                burst: 100,
                quota: Some(2),
            },
            None,
        )
        .with_override(
            9,
            TenantPolicy {
                rate_per_s: 1_000_000,
                burst: 100,
                quota: None,
            },
        );
        assert_eq!(t.admit(1, 0), Admission::Admitted);
        assert_eq!(t.admit(1, 0), Admission::Admitted);
        // Quota outlasts any refill.
        assert_eq!(t.admit(1, 60_000_000_000), Admission::QuotaExhausted);
        assert_eq!(t.used(1), 2);
        // Tenant 9 is unaffected by tenant 1's exhaustion.
        for _ in 0..10 {
            assert_eq!(t.admit(9, 0), Admission::Admitted);
        }
    }

    #[test]
    fn counters_reconcile_with_outcomes() {
        let r = Registry::new();
        let t = TenantTable::new(
            TenantPolicy {
                rate_per_s: 1000,
                burst: 2,
                quota: Some(3),
            },
            Some(r.clone()),
        );
        let mut tally = [0u64; 3];
        for i in 0..6 {
            match t.admit(4, i * 600_000_000) {
                Admission::Admitted => tally[0] += 1,
                Admission::Throttled => tally[1] += 1,
                Admission::QuotaExhausted => tally[2] += 1,
            }
        }
        assert_eq!(r.counter("gateway.tenant.4.admitted").get(), tally[0]);
        assert_eq!(r.counter("gateway.tenant.4.throttled").get(), tally[1]);
        assert_eq!(
            r.counter("gateway.tenant.4.quota_exhausted").get(),
            tally[2]
        );
        assert_eq!(tally[0], 3);
    }

    #[test]
    fn tenant_series_are_capped_and_admission_is_not() {
        let policy = TenantPolicy {
            rate_per_s: 1000,
            burst: 2,
            quota: None,
        };
        let r = Registry::new();
        let counted = TenantTable::new(policy, Some(r.clone()));
        let uncounted = TenantTable::new(policy, None);
        for id in 0..10_000u32 {
            // Three requests against a burst of two: every id, counted
            // under its own name or under `other`, is decided alike.
            let verdicts = [0; 3].map(|now| counted.admit(id, now));
            assert_eq!(verdicts, [0; 3].map(|now| uncounted.admit(id, now)));
            assert_eq!(verdicts[1..], [Admission::Admitted, Admission::Throttled]);
        }
        let counters = r.snapshot().counters;
        let series = counters.keys().filter(|k| k.starts_with("gateway.tenant."));
        assert_eq!(series.count(), 3 * (OWN_SERIES_TENANTS + 1));
        let others = 10_000 - OWN_SERIES_TENANTS as u64;
        assert_eq!(counters["gateway.tenant.63.admitted"], 2);
        assert_eq!(counters["gateway.tenant.other.admitted"], 2 * others);
        assert_eq!(counters["gateway.tenant.other.throttled"], others);
    }
}
