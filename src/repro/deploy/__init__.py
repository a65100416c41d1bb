"""Deployment economics (§5, E12) and provisioning advice (§7)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "advisor": ("ProvisioningAdvisor", "SiteAssessment"),
    "costs": (
        "BomItem", "DeploymentPlan", "PAPUA_REFERENCE_BOM",
        "carrier_femtocell_plan", "coverage_area_km2", "dlte_site_plan",
        "wifi_site_plan"),
})
