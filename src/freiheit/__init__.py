"""Random groups in the Gromov density model: combinatorial machinery for
word sampling, Stallings foldings, van Kampen and abstract distortion
diagrams, and the freeness/collapse phase transition at
d_r = min(1/2, 1 - log_{2m-1}(2r-1))."""

__version__ = "0.1.0"

from .words import (Word, free_reduce, cyclic_reduce,
                    count_reduced_exact, count_cyclically_reduced_exact,
                    count_cyclically_reduced_upto, enumerate_cyclically_reduced,
                    sample_cyclically_reduced, word_at_index,
                    word_from_text, word_to_text)
from .density import (DensityModel, RelatorSet, make_relator_set,
                      bernoulli_subset, bernoulli_index_subset,
                      uniform_count_subset, uniform_count_index_subset,
                      density_estimate, sample_relator_set,
                      intersection_experiment)
from .stallings import (LabeledGraph, wedge_of_words, fold, betti,
                        is_reduced_graph, graph_stats, readable_words,
                        enumerate_topological_types, enumerate_reduced_graphs,
                        graph_from_text, graph_to_text)
from .complexes import PlanarComplex, DistortionDiagram, check_complex
from .diagrams import (VanKampenDiagram, validate,
                       boundary_word, is_reduced, isoperimetric_ratio,
                       enumerate_reduced_disk_diagrams, bounded_triviality,
                       certify_bilipschitz)
from .abstract_diagrams import (AbstractDiagram, AbstractDistortionDiagram,
                                decorate, classify, edge_partition,
                                elementary_segments, count_inequalities,
                                underlying_abstract, fill, enumerate_fillings,
                                filling_bound, filling_bound_exact,
                                enumerate_abstract_diagrams,
                                enumerate_abstract_distortion_diagrams)
from .experiments import (critical_density, epsilon_d, collapse_probe,
                          triviality_probe, rewrite_presentation,
                          freeness_probe, fillability_bound,
                          fillability_crossover, TransitionConfig,
                          SweepBudgets, transition_sweep, run_trial)
