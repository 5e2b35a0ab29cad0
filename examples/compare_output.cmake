# Run one example and compare its stdout byte for byte with the committed
# golden copy. Scenario output is deterministic (seeded DRBGs, simulated
# clocks), so any difference is a behaviour change:
#   cmake -DEXAMPLE=<binary> -DEXPECTED=<golden.txt> -DACTUAL=<out.txt>
#         -P compare_output.cmake
execute_process(COMMAND ${EXAMPLE}
                OUTPUT_FILE ${ACTUAL}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${EXPECTED}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${EXAMPLE} differs from ${EXPECTED}; "
                      "see ${ACTUAL}")
endif()
