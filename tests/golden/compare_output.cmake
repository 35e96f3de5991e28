# Runs BIN and compares its stdout byte for byte against GOLDEN (the
# golden_output.* ctest entries). The actual output is kept at OUT so a
# failure can be diffed by hand:
#   cmake -DBIN=build/fig_6_5_queue_latency -DGOLDEN=tests/golden/fig_6_5_queue_latency.txt \
#         -DOUT=/tmp/fig_6_5.txt -P tests/golden/compare_output.cmake
get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
execute_process(COMMAND "${BIN}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with status ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ "${OUT}" actual)
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; it printed:\n${actual}")
endif()
