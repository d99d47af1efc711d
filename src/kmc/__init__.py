"""Kauffman bracket, atoms, Khovanov homology and diagram minimality
certificates for classical and virtual link diagrams."""

from .atom import Atom, GenusValue, build_atom, genus, orientable
from .diagram import (
    Diagram,
    Orientation,
    components,
    crossing_signs,
    is_connected,
    mirror,
    orient,
    parse_gauss,
    parse_pd,
    r1_add,
    r2_add,
    render_pd,
    simplify,
    split_components,
    switch_crossing,
    virtualize,
)
from .errors import (
    DiagramError,
    InvariantError,
    KmcError,
    LimitError,
    ParseError,
    TableError,
    UnsupportedFieldError,
)
from .khovanov import (
    GF2,
    KhComplex,
    KhTable,
    Q,
    build_complex,
    graded_euler_characteristic,
    homology,
    kh_table,
    load_table,
    q_span,
    thickness,
)
from .laurent import LOOP, Laurent
from .minimality import Certificate, FieldReport, certify, certify_from_table
from .single_circle import SingleCircleCensus, single_circle_census
from .statesum import (
    circles_of_state,
    kauffman_bracket,
    span_bound,
    state_circles,
)

__version__ = "0.1.0"
