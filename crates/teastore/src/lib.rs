//! A model of **TeaStore**, the reference microservice application the paper
//! characterizes (von Kistowski et al., ICPE'18).
//!
//! TeaStore is an online tea shop decomposed into six services:
//!
//! | Service | Role | Profile |
//! |---|---|---|
//! | WebUI | servlet frontend, renders JSPs | web frontend |
//! | Auth | session validation, BCrypt login | light RPC |
//! | Persistence | ORM over the store database | data tier |
//! | Recommender | in-memory collaborative filtering | in-memory analytics |
//! | ImageProvider | product image scaling + cache | media |
//! | Registry | service discovery (startup/heartbeat only) | light RPC |
//!
//! plus a MySQL database, modeled here as a seventh service (`store-db`)
//! because it competes for the same CPUs in single-server scale-up runs.
//!
//! [`TeaStore`] builds the [`microsvc::AppSpec`] with the six
//! request classes of the *browse profile* (the mix the paper drives):
//! home, login, category browsing, product views, add-to-cart, and checkout.
//! CPU demands are calibrated from published TeaStore measurements (a full
//! page load costs a few ms of CPU spread over 3–7 service invocations; the
//! WebUI dominates) — see [`demands`] for the numbers and their derivation.
//!
//! The Registry is deliberately *not* on the request path: TeaStore resolves
//! instances through client-side caches refreshed out of band. It is still
//! deployed (it occupies a little memory and an occasional heartbeat), which
//! we model as a service with no request-class traffic.
//!
//! # Example
//!
//! ```
//! use teastore::TeaStore;
//!
//! let store = TeaStore::browse();
//! assert_eq!(store.app().services().len(), 7);
//! assert_eq!(store.app().classes().len(), 6);
//! // The WebUI is the demand bottleneck, as the paper reports.
//! let demand = store.app().mean_demand_per_service_us();
//! let webui = demand[store.services().webui.index()];
//! assert!(demand.iter().all(|&d| d <= webui));
//! ```

pub mod catalog;
pub mod demands;

use microsvc::{AppSpec, CallNode, CallStage, Demand, RequestClassId, ServiceId, ServiceSpec};
use uarch::ServiceProfile;

/// The request-mix profiles the load driver can replay.
///
/// The paper drives the *browse* profile; the others exist for sensitivity
/// studies (checkout-heavy sale events, authentication storms) and shift the
/// bottleneck between services.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MixProfile {
    /// The standard browsing session mix (the paper's workload).
    #[default]
    Browse,
    /// A sale event: more carts and checkouts, fewer idle views.
    BuyHeavy,
    /// A login storm: BCrypt-heavy authentication dominates.
    LoginStorm,
}

impl MixProfile {
    /// Class weights in the order (home, login, category, product,
    /// add-to-cart, buy); each sums to 1.
    pub fn weights(self) -> [f64; 6] {
        match self {
            MixProfile::Browse => [0.10, 0.05, 0.30, 0.35, 0.15, 0.05],
            MixProfile::BuyHeavy => [0.08, 0.07, 0.20, 0.30, 0.20, 0.15],
            MixProfile::LoginStorm => [0.15, 0.40, 0.15, 0.15, 0.10, 0.05],
        }
    }
}

/// Ids of the seven deployed services.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Services {
    /// The servlet frontend.
    pub webui: ServiceId,
    /// Session/credential checks.
    pub auth: ServiceId,
    /// The ORM tier.
    pub persistence: ServiceId,
    /// The recommender.
    pub recommender: ServiceId,
    /// The image provider.
    pub image: ServiceId,
    /// Service discovery (off the hot path).
    pub registry: ServiceId,
    /// The MySQL stand-in.
    pub db: ServiceId,
}

/// Ids of the six browse-profile request classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classes {
    /// The landing page.
    pub home: RequestClassId,
    /// Login with BCrypt verification.
    pub login: RequestClassId,
    /// A category listing page.
    pub category: RequestClassId,
    /// A product detail page (with recommendations).
    pub product: RequestClassId,
    /// Adding an item to the cart.
    pub add_to_cart: RequestClassId,
    /// Order checkout.
    pub buy: RequestClassId,
}

/// The TeaStore application model.
#[derive(Debug, Clone)]
pub struct TeaStore {
    app: AppSpec,
    services: Services,
    classes: Classes,
}

impl TeaStore {
    /// Builds TeaStore with the browse-profile mix and calibrated demands.
    pub fn browse() -> Self {
        Self::with_options(MixProfile::Browse, 1.0)
    }

    /// Like [`TeaStore::browse`], with every CPU demand multiplied by
    /// `scale`. Useful for sensitivity studies and fast tests.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive.
    pub fn with_demand_scale(scale: f64) -> Self {
        Self::with_options(MixProfile::Browse, scale)
    }

    /// Builds TeaStore with an alternative request mix.
    pub fn with_mix(mix: MixProfile) -> Self {
        Self::with_options(mix, 1.0)
    }

    /// Builds TeaStore with full control of mix and demand scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive.
    pub fn with_options(mix: MixProfile, scale: f64) -> Self {
        assert!(scale > 0.0, "demand scale must be positive");
        Self::with_demand_table(mix, demands::DemandTable::scaled(scale))
    }

    /// Builds TeaStore from an explicit demand table — e.g. one whose store
    /// queries were derived from a generated catalog
    /// ([`demands::DemandTable::with_catalog_queries`]).
    pub fn with_demand_table(mix: MixProfile, d: demands::DemandTable) -> Self {
        let mut app = AppSpec::new();
        let services = Services {
            webui: app.add_service(
                ServiceSpec::new("webui", ServiceProfile::web_frontend("webui")).with_threads(16),
            ),
            auth: app.add_service(
                ServiceSpec::new("auth", ServiceProfile::light_rpc("auth")).with_threads(8),
            ),
            persistence: app.add_service(
                ServiceSpec::new("persistence", ServiceProfile::data_tier("persistence"))
                    .with_threads(12),
            ),
            recommender: app.add_service(
                ServiceSpec::new(
                    "recommender",
                    ServiceProfile::in_memory_analytics("recommender"),
                )
                .with_threads(8),
            ),
            image: app.add_service(
                ServiceSpec::new("image", ServiceProfile::media("image")).with_threads(8),
            ),
            registry: app.add_service(
                ServiceSpec::new("registry", ServiceProfile::light_rpc("registry")).with_threads(2),
            ),
            db: app.add_service(
                ServiceSpec::new("store-db", ServiceProfile::database("store-db")).with_threads(12),
            ),
        };
        let s = services;

        // Helper constructors for the recurring sub-trees.
        let auth_check = || CallNode::leaf(s.auth, d.auth_check);
        let persistence_q = |orm: Demand, query: Demand| {
            CallNode::new(
                s.persistence,
                orm,
                vec![CallStage {
                    parallel: vec![CallNode::leaf(s.db, query)],
                }],
                Demand::ZERO,
            )
        };
        let recommend = || {
            CallNode::new(
                s.recommender,
                d.recommend,
                vec![CallStage {
                    parallel: vec![persistence_q(d.orm_light, d.query_light)],
                }],
                Demand::ZERO,
            )
        };

        let home = CallNode::new(
            s.webui,
            d.webui_home,
            vec![CallStage {
                parallel: vec![
                    auth_check(),
                    persistence_q(d.orm_categories, d.query_light),
                    CallNode::leaf(s.image, d.image_banner),
                ],
            }],
            d.webui_render,
        );

        let login = CallNode::new(
            s.webui,
            d.webui_light,
            vec![CallStage {
                parallel: vec![CallNode::new(
                    s.auth,
                    d.auth_login,
                    vec![CallStage {
                        parallel: vec![persistence_q(d.orm_light, d.query_light)],
                    }],
                    Demand::ZERO,
                )],
            }],
            d.webui_render_light,
        );

        let category = CallNode::new(
            s.webui,
            d.webui_category,
            vec![CallStage {
                parallel: vec![
                    auth_check(),
                    persistence_q(d.orm_products, d.query_products),
                    CallNode::leaf(s.image, d.image_previews),
                ],
            }],
            d.webui_render,
        );

        let product = CallNode::new(
            s.webui,
            d.webui_product,
            vec![
                CallStage {
                    parallel: vec![
                        auth_check(),
                        persistence_q(d.orm_product, d.query_light),
                        CallNode::leaf(s.image, d.image_full),
                    ],
                },
                CallStage {
                    parallel: vec![recommend()],
                },
            ],
            d.webui_render,
        );

        let add_to_cart = CallNode::new(
            s.webui,
            d.webui_cart,
            vec![CallStage {
                parallel: vec![CallNode::leaf(s.auth, d.auth_cart), recommend()],
            }],
            d.webui_render_light,
        );

        let buy = CallNode::new(
            s.webui,
            d.webui_buy,
            vec![CallStage {
                parallel: vec![
                    CallNode::leaf(s.auth, d.auth_cart),
                    persistence_q(d.orm_order, d.query_order),
                ],
            }],
            d.webui_render_light,
        );

        // Mix weights (fractions of the request stream).
        let w = mix.weights();
        let classes = Classes {
            home: app.add_class("home", w[0], home),
            login: app.add_class("login", w[1], login),
            category: app.add_class("category", w[2], category),
            product: app.add_class("product", w[3], product),
            add_to_cart: app.add_class("add-to-cart", w[4], add_to_cart),
            buy: app.add_class("buy", w[5], buy),
        };

        TeaStore {
            app,
            services,
            classes,
        }
    }

    /// The application specification (services + request classes).
    pub fn app(&self) -> &AppSpec {
        &self.app
    }

    /// Consumes the model, yielding the [`AppSpec`].
    pub fn into_app(self) -> AppSpec {
        self.app
    }

    /// Service ids.
    pub fn services(&self) -> Services {
        self.services
    }

    /// Request-class ids.
    pub fn classes(&self) -> Classes {
        self.classes
    }

    /// The request-mix weights in class order (sums to 1).
    pub fn mix(&self) -> Vec<f64> {
        self.app.classes().iter().map(|c| c.weight).collect()
    }

    /// A human-readable table of services, profiles, and per-request demand
    /// (experiment E2).
    pub fn service_table(&self) -> String {
        let per = self.app.mean_demand_per_service_us();
        let mut out =
            String::from("service        profile-IPC  ws(MiB)  threads  mean CPU µs/request\n");
        for (i, spec) in self.app.services().iter().enumerate() {
            out.push_str(&format!(
                "{:<14} {:>10.2}  {:>7.1}  {:>7}  {:>19.1}\n",
                spec.name,
                spec.profile.base_ipc,
                spec.profile.working_set_bytes as f64 / (1 << 20) as f64,
                spec.default_threads,
                per[i],
            ));
        }
        out
    }
}

impl Default for TeaStore {
    fn default() -> Self {
        Self::browse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_seven_services_six_classes() {
        let store = TeaStore::browse();
        assert_eq!(store.app().services().len(), 7);
        assert_eq!(store.app().classes().len(), 6);
        assert_eq!(
            store.app().service_by_name("webui"),
            Some(store.services().webui)
        );
        assert_eq!(
            store.app().service_by_name("store-db"),
            Some(store.services().db)
        );
    }

    #[test]
    fn mix_sums_to_one() {
        let mix = TeaStore::browse().mix();
        let total: f64 = mix.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mix sums to {total}");
        assert_eq!(mix.len(), 6);
    }

    #[test]
    fn webui_is_the_demand_bottleneck() {
        let store = TeaStore::browse();
        let per = store.app().mean_demand_per_service_us();
        let webui = per[store.services().webui.index()];
        for (i, &d) in per.iter().enumerate() {
            if i != store.services().webui.index() {
                assert!(d < webui, "service {i} demand {d} exceeds webui {webui}");
            }
        }
    }

    #[test]
    fn registry_gets_no_request_traffic() {
        let store = TeaStore::browse();
        let per = store.app().mean_demand_per_service_us();
        assert_eq!(per[store.services().registry.index()], 0.0);
    }

    #[test]
    fn total_request_demand_is_a_few_ms() {
        let store = TeaStore::browse();
        let total: f64 = store.app().mean_demand_per_service_us().iter().sum();
        assert!(
            (2_000.0..12_000.0).contains(&total),
            "mean demand per request = {total} µs"
        );
    }

    #[test]
    fn demand_scale_scales_linearly() {
        let base: f64 = TeaStore::browse()
            .app()
            .mean_demand_per_service_us()
            .iter()
            .sum();
        let half: f64 = TeaStore::with_demand_scale(0.5)
            .app()
            .mean_demand_per_service_us()
            .iter()
            .sum();
        assert!((half * 2.0 - base).abs() / base < 1e-9);
    }

    #[test]
    fn product_class_reaches_recommender() {
        let store = TeaStore::browse();
        let class = &store.app().classes()[store.classes().product.index()];
        let mut per = vec![0.0; store.app().services().len()];
        class.root.demand_by_service(&mut per);
        assert!(per[store.services().recommender.index()] > 0.0);
        assert!(per[store.services().db.index()] > 0.0);
    }

    #[test]
    fn service_table_renders() {
        let table = TeaStore::browse().service_table();
        assert!(table.contains("webui"));
        assert!(table.contains("recommender"));
        assert!(table.lines().count() >= 8);
    }

    #[test]
    #[should_panic(expected = "demand scale must be positive")]
    fn zero_scale_rejected() {
        TeaStore::with_demand_scale(0.0);
    }

    #[test]
    fn all_mixes_sum_to_one() {
        for mix in [
            MixProfile::Browse,
            MixProfile::BuyHeavy,
            MixProfile::LoginStorm,
        ] {
            let total: f64 = mix.weights().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{mix:?} sums to {total}");
        }
    }

    #[test]
    fn login_storm_shifts_the_bottleneck_toward_auth() {
        let browse = TeaStore::browse();
        let storm = TeaStore::with_mix(MixProfile::LoginStorm);
        let auth = browse.services().auth.index();
        let b = browse.app().mean_demand_per_service_us()[auth];
        let s = storm.app().mean_demand_per_service_us()[auth];
        assert!(
            s > 3.0 * b,
            "auth demand must surge under a login storm: {b} → {s}"
        );
    }

    #[test]
    fn buy_heavy_mix_is_applied_to_classes() {
        let sale = TeaStore::with_mix(MixProfile::BuyHeavy);
        let weights: Vec<f64> = sale.mix();
        assert_eq!(weights, MixProfile::BuyHeavy.weights().to_vec());
        // Checkout traffic triples relative to the browse profile.
        let buy_browse = MixProfile::Browse.weights()[5];
        let buy_sale = MixProfile::BuyHeavy.weights()[5];
        assert!(buy_sale >= 2.9 * buy_browse);
    }
}
