"""Edge-server discovery and placement toolkit.

DNS SRV records under the _edge label advertise edge servers per zone.
Probed cloud-to-client paths fold into a /24 aggregation tree; services
are placed on the most central adequately-provisioned servers and clients
reach them through expiring HTTP 302 redirects. Everything runs in rounds,
live or entirely from fixtures.
"""

from .discovery import (
    DomainIdentity,
    EdgeServer,
    Provenance,
    discover_local_edges,
    reverse_lookup,
    select_server,
)
from .errors import EdiscoError
from .placement import (
    PlacementPlan,
    ServiceProfile,
    fold_client_paths,
    plan_round,
    score_candidates,
)
from .probing import ProbeConfig
from .redirect import RedirectService
from .rounds import RoundConfig, RoundProviders, RoundRecord, run_every, run_round
from .simharness import ScenarioSpec, generate_scenario, validate_bundle
from .topology import (
    AggregationTree,
    Hop,
    ProbedPath,
    build_tree,
    compute_centrality,
    export_dot,
    group_subnet,
)
from .zonefile import SrvRecord, Transport, parse_zone

__version__ = "0.1.0"

__all__ = [
    "AggregationTree",
    "DomainIdentity",
    "EdiscoError",
    "EdgeServer",
    "Hop",
    "PlacementPlan",
    "ProbeConfig",
    "ProbedPath",
    "Provenance",
    "RedirectService",
    "RoundConfig",
    "RoundProviders",
    "RoundRecord",
    "ScenarioSpec",
    "ServiceProfile",
    "SrvRecord",
    "Transport",
    "build_tree",
    "compute_centrality",
    "discover_local_edges",
    "export_dot",
    "fold_client_paths",
    "generate_scenario",
    "group_subnet",
    "parse_zone",
    "plan_round",
    "reverse_lookup",
    "run_every",
    "run_round",
    "score_candidates",
    "select_server",
    "validate_bundle",
    "__version__",
]
