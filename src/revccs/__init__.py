"""Reversible process calculus workbench.

Parse finite processes, run them forward and backward, denote them as
labelled configuration structures and decide behavioural equivalences,
producing a discriminating context when the finest one fails.
"""

from .syntax import (Action, TAU, inp, out, Nil, NIL, Prefix, Sum, Par,
                     Restrict, Hole, HOLE, CcsTerm, Process, Context,
                     ParseError, parse, parse_context, unparse, collapse,
                     is_collapsed, instantiate, free_names, all_names,
                     fresh_name, push_restrictions,
                     detect_auto_conflict_or_concurrency)
from .confstruct import (ConfStruct, EMPTY, Morphism, validate, product,
                         coproduct, restrict_name, prefix, relabel, parallel,
                         residual, causal_order, prune, embeds, isomorphic,
                         to_json, from_json, to_dot)
from .rccs import (Fork, FORK, Past, Monitored, RPar, RRestrict, RTerm,
                   TransitionLabel, IncoherentTerm, lift, erase, normalize,
                   forward_steps, backward_steps, is_coherent, origin,
                   trace_to_origin, barb, barbs, reachable_states, state_key,
                   ccs_state_key)
from .encoding import (encode_ccs, encode_rccs, address, Address,
                       NoMatchingEvent, AmbiguousEvent, CorrespondenceFailure,
                       check_operational_correspondence)
from .equivalences import (EquivalenceVerdict, StratifiedRelation, hhpb,
                           hhpb_relation, hhpb_oracle, BoundExceeded,
                           build_stratification, barbed_bf_bisim_structs,
                           barbed_bf_bisim_terms, synthesize_context,
                           CongruenceReport, check_congruence_closure,
                           default_context_family, forward_strong_bisim)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
