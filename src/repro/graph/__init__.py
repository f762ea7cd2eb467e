"""Graph substrate: CSR representation, builders, generators, IO, proxies."""

from .builder import (
    edge_arrays_of,
    from_adjacency,
    from_edge_arrays,
    from_edge_list,
    from_networkx,
)
from .components import (
    component_sizes,
    connected_components,
    induced_subgraph,
    largest_component_vertices,
)
from .csr import CSRGraph
from .evolving import (
    EvolvingGraph,
    GraphVersion,
    apply_updates,
    normalize_update_edges,
)
from .generators import (
    barbell_graph,
    citation_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_3d,
    paper_figure1_graph,
    path_graph,
    planted_partition,
    power_law_communities,
    rand_local,
    rmat,
    star_graph,
)
from .io import (
    load_npz,
    read_adjacency_graph,
    read_edge_list,
    save_npz,
    write_adjacency_graph,
    write_edge_list,
)
from .proxies import PROXIES, ProxySpec, default_scale, load_proxy, proxy_names
from .shared import SharedCSR, SharedCSRHandle

__all__ = [
    "CSRGraph",
    "EvolvingGraph",
    "GraphVersion",
    "apply_updates",
    "normalize_update_edges",
    "edge_arrays_of",
    "from_adjacency",
    "from_edge_arrays",
    "from_edge_list",
    "from_networkx",
    "component_sizes",
    "connected_components",
    "induced_subgraph",
    "largest_component_vertices",
    "barbell_graph",
    "citation_graph",
    "complete_graph",
    "cycle_graph",
    "erdos_renyi",
    "grid_3d",
    "paper_figure1_graph",
    "path_graph",
    "planted_partition",
    "power_law_communities",
    "rand_local",
    "rmat",
    "star_graph",
    "load_npz",
    "read_adjacency_graph",
    "read_edge_list",
    "save_npz",
    "write_adjacency_graph",
    "write_edge_list",
    "PROXIES",
    "ProxySpec",
    "default_scale",
    "load_proxy",
    "proxy_names",
    "SharedCSR",
    "SharedCSRHandle",
]
