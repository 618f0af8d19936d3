"""The paper's primary contribution: control-based load shedding.

Model (Eq. 2/3/11), pole-placement controller synthesis (Appendix A),
the CTRL/BASELINE/AURORA strategies, the monitor with estimated-delay
feedback, the actuators (one admission filter per drop policy), and the
control loop that ties them together.
"""

from .actuator import (
    Actuator,
    EntryActuator,
    InNetworkActuator,
    PriorityEntryActuator,
    SemanticEntryActuator,
)
from .adaptive import AdaptiveController, RlsGainEstimator
from .clock import Clock, ManualClock, WallClock
from .controller import (
    AuroraOpenLoopController,
    BackpressureController,
    BaselineController,
    ControlDecision,
    Controller,
    PolePlacementController,
)
from .estimation import (
    CostEstimator,
    EwmaEstimator,
    KalmanCostEstimator,
    LastValueEstimator,
    WindowMedianEstimator,
)
from .loop import ControlLoop
from .model import DsmsModel
from .monitor import Measurement, Monitor
from .prediction import (
    Ar1Predictor,
    ArrivalPredictor,
    HoltPredictor,
    MovingAveragePredictor,
)
from .window_adaptation import WindowAdaptationActuator
from .pole_placement import (
    PAPER_A,
    PAPER_B0,
    PAPER_B1,
    PAPER_POLES,
    ControllerGains,
    design_gains,
    paper_gains,
    poles_from_specs,
)

#: strategy name -> controller factory: the one table the experiment
#: runner and every shard builder read
STRATEGIES = {
    "CTRL": PolePlacementController,
    "BASELINE": BaselineController,
    "AURORA": AuroraOpenLoopController,
    "BACKPRESSURE": BackpressureController,
    "ADAPTIVE": AdaptiveController,
}

__all__ = [
    "Actuator",
    "Ar1Predictor",
    "ArrivalPredictor",
    "AdaptiveController",
    "AuroraOpenLoopController",
    "BackpressureController",
    "BaselineController",
    "Clock",
    "ControlDecision",
    "ControlLoop",
    "Controller",
    "ControllerGains",
    "CostEstimator",
    "DsmsModel",
    "EntryActuator",
    "EwmaEstimator",
    "InNetworkActuator",
    "KalmanCostEstimator",
    "LastValueEstimator",
    "HoltPredictor",
    "ManualClock",
    "Measurement",
    "Monitor",
    "MovingAveragePredictor",
    "PAPER_A",
    "PAPER_B0",
    "PAPER_B1",
    "PAPER_POLES",
    "PolePlacementController",
    "PriorityEntryActuator",
    "RlsGainEstimator",
    "STRATEGIES",
    "SemanticEntryActuator",
    "WallClock",
    "WindowAdaptationActuator",
    "WindowMedianEstimator",
    "design_gains",
    "paper_gains",
    "poles_from_specs",
]
